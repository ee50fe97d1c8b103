// Package fifo provides the one slice-backed queue the simulator's run
// queues, waiter lists, message queues, bucket caches and the allocation
// window's free lists share.
package fifo

// Queue is a slice-backed FIFO that pops in O(1) and does not leak its
// consumed prefix: a plain `q = q[1:]` pop keeps the backing array's head
// elements reachable (pinning popped buckets, messages and their closures for
// the array's lifetime) and `copy(q, q[1:])` moves the whole queue per pop,
// whereas Queue zeroes each popped slot and copies the live tail down once
// the dead prefix dominates. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Peek returns the head element without removing it. The queue must not be
// empty.
func (q *Queue[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head element. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release the reference immediately
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// TakeAll removes and returns every queued element. The returned slice is
// detached from the queue's storage.
func (q *Queue[T]) TakeAll() []T {
	out := q.buf[q.head:]
	q.buf = nil
	q.head = 0
	return out
}
