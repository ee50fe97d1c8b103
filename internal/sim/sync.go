package sim

import (
	"wafl/internal/fifo"
	"wafl/internal/obs"
)

// Mutex is a simulated lock with FIFO waiters. Because the kernel serializes
// all simulated execution, Mutex exists to model blocking and contention —
// and to measure them (Stats.MutexWait) — rather than to provide memory
// safety.
type Mutex struct {
	s       *Scheduler
	name    string
	holder  *Thread
	waiters fifo.Queue[*Thread]
}

// NewMutex returns a simulated mutex. name is used in diagnostics.
func NewMutex(s *Scheduler, name string) *Mutex {
	return &Mutex{s: s, name: name}
}

// Lock acquires the mutex, blocking t FIFO behind current waiters if it is
// held. Lock costs no CPU by itself; callers model critical-section and
// lock-operation CPU with Consume.
func (m *Mutex) Lock(t *Thread) {
	if m.holder == nil {
		m.holder = t
		return
	}
	start := m.s.now
	m.waiters.Push(t)
	t.park()
	// Ownership was transferred to us by Unlock before we were resumed.
	m.s.stats.MutexWait.Observe(int64(m.s.now - start))
	if tr := m.s.tr; tr != nil {
		tr.Span(obs.PidThreads, t.TrackID(), "sync", "lock:"+m.name, int64(start), int64(m.s.now))
	}
}

// Unlock releases the mutex, handing it directly to the oldest waiter if any.
func (m *Mutex) Unlock(t *Thread) {
	if m.holder != t {
		panic("sim: Unlock of mutex " + m.name + " by non-holder")
	}
	if m.waiters.Len() == 0 {
		m.holder = nil
		return
	}
	m.holder = m.waiters.Pop()
	m.s.post(m.s.now, action{t: m.holder})
}

// WaitQueue is a condition-variable-like parking lot for simulated threads.
type WaitQueue struct {
	s       *Scheduler
	name    string
	waiters fifo.Queue[*Thread]

	Waits   uint64 // total Wait calls
	Signals uint64 // total Signal/Broadcast wakeups delivered
}

// NewWaitQueue returns a WaitQueue. name is used in diagnostics.
func NewWaitQueue(s *Scheduler, name string) *WaitQueue {
	return &WaitQueue{s: s, name: name}
}

// Wait parks t on the queue until a Signal or Broadcast wakes it.
func (q *WaitQueue) Wait(t *Thread) {
	q.enter(t)
	t.park()
	q.leave(t)
}

// enter and leave are the halves of Wait on either side of the park.
func (q *WaitQueue) enter(t *Thread) {
	q.Waits++
	t.waitStart = q.s.now
	q.waiters.Push(t)
}

func (q *WaitQueue) leave(t *Thread) {
	q.s.stats.WaitQueueWait.Observe(int64(q.s.now - t.waitStart))
	if tr := q.s.tr; tr != nil {
		tr.Span(obs.PidThreads, t.TrackID(), "sync", "wait:"+q.name, int64(t.waitStart), int64(q.s.now))
	}
}

// WaitUntil is exactly
//
//	for { q.Wait(t); if ready() { break } }
//
// except that ready runs on whoever dispatches each wake-up, so one it refuses
// switches into nobody: events, their order, Waits, Signals and the trace are
// the loop's, and only Switches is lower. Like an After callback, ready must
// not block.
func (q *WaitQueue) WaitUntil(t *Thread, ready func() bool) {
	t.waitQ, t.ready = q, ready
	q.enter(t)
	t.park() // dispatch resumes t only once admit has said yes
}

// admit is the dispatcher's half of WaitUntil. t's wake-up is due, which ends
// this wait; if ready refuses, t begins the next one without having run.
func (q *WaitQueue) admit(t *Thread) bool {
	q.leave(t)
	if t.ready() {
		t.waitQ, t.ready = nil, nil
		return true
	}
	q.enter(t)
	return false
}

// WaitWith atomically releases m, parks t, and re-acquires m before
// returning — condition-variable semantics.
func (q *WaitQueue) WaitWith(t *Thread, m *Mutex) {
	m.Unlock(t)
	q.Wait(t)
	m.Lock(t)
}

// Signal wakes the oldest waiter, if any, and reports whether one was woken.
func (q *WaitQueue) Signal() bool {
	if q.waiters.Len() == 0 {
		return false
	}
	q.Signals++
	q.s.post(q.s.now, action{t: q.waiters.Pop()})
	return true
}

// Broadcast wakes all waiters and returns how many were woken.
func (q *WaitQueue) Broadcast() int {
	n := q.waiters.Len()
	for i := 0; i < n; i++ {
		q.Signals++
		q.s.post(q.s.now, action{t: q.waiters.Pop()})
	}
	return n
}

// Len returns the number of parked threads.
func (q *WaitQueue) Len() int { return q.waiters.Len() }
