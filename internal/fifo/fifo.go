// Package fifo provides the one slice-backed queue the simulator's run
// queues, waiter lists, message queues and bucket caches share, and the one
// recycling primitive built on it, Pool, that every free list of host state
// is (DESIGN §9).
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

// Pool is a free list of records: Get takes the oldest returned record, or a
// new one, and Put gives one back at the event that ends its lifetime. Its
// owner resets a record before the Put, as only it knows what a record
// holds. No sync.Pool: that empties at every GC, so allocation counts would
// depend on GC timing. The pool counts into a PoolStats its owner publishes,
// so a path that forgets its Put shows there as a record outstanding.
type Pool[T any] struct {
	free  Queue[T]
	new   func() T
	stats *PoolStats
}

// PoolStats counts a Pool's records. A record is outstanding from its Get to
// its Put; abandoned ones were outstanding when a crash dropped whatever held
// them, and never come back.
type PoolStats struct {
	New       uint64 // records built
	Taken     uint64 // Gets, New included
	Returned  uint64 // Puts
	Abandoned uint64
}

// Outstanding returns the records taken and neither returned nor abandoned.
func (s PoolStats) Outstanding() int64 { return int64(s.Taken - s.Returned - s.Abandoned) }

// NewPool returns an empty pool that counts into stats and whose Get builds a
// record with newFn when no returned one is waiting.
func NewPool[T any](stats *PoolStats, newFn func() T) Pool[T] {
	return Pool[T]{new: newFn, stats: stats}
}

// Get returns a returned record, the oldest first, or a new one.
func (p *Pool[T]) Get() T {
	p.stats.Taken++
	if p.free.Len() > 0 {
		return p.free.Pop()
	}
	p.stats.New++
	return p.new()
}

// Put returns v, which its owner has reset, for a later Get.
func (p *Pool[T]) Put(v T) {
	p.stats.Returned++
	p.free.Push(v)
}

// Abandon writes off every outstanding record: a crash dropped what held
// them, and whatever still refers to one must never return it.
func (p *Pool[T]) Abandon() { p.stats.Abandoned = p.stats.Taken - p.stats.Returned }
