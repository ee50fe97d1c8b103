package fifo

// All returns the live elements in queue order without consuming them.
func (q *Queue[T]) All() []T { return q.buf[q.head:] }
