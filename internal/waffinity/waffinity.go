// Package waffinity implements the Hierarchical Waffinity message scheduler
// described in §III of the paper (and Fig 1): file system work is expressed
// as messages sent to affinities arranged in a tree, and the scheduler
// guarantees that a message never runs concurrently with another message in
// the same affinity, any ancestor affinity, or any descendant affinity.
// Affinities that are neither ancestors nor descendants of one another run
// in parallel on the worker pool.
//
// This data partitioning is what lets the file system avoid fine-grained
// locking: two messages that could touch the same data are mapped to
// affinities that exclude each other, while messages on disjoint data (other
// volumes, other block ranges of a metafile, other file stripes) proceed
// concurrently.
//
// Classical Waffinity (§III-B) is the degenerate hierarchy consisting of the
// Serial affinity and a flat set of Stripe affinities; it can be built with
// the same primitives (TestClassicalHierarchy does).
package waffinity

import (
	"fmt"

	"wafl/internal/fifo"
	"wafl/internal/obs"
	"wafl/internal/sim"
)

// Kind classifies an affinity node, mirroring Fig 1 of the paper.
type Kind int

// Affinity kinds, from the root down.
const (
	KindSerial        Kind = iota // excludes everything
	KindAggregate                 // per-aggregate work
	KindAggrVBN                   // aggregate allocation-metafile work
	KindVolume                    // per-FlexVol work
	KindVolumeLogical             // client-facing logical file work
	KindStripe                    // a stripe (block range) of user files
	KindVolumeVBN                 // volume allocation-metafile work
	KindRange                     // a block range of allocation metafiles
)

// String returns the affinity kind name as used in the paper.
func (k Kind) String() string {
	switch k {
	case KindSerial:
		return "Serial"
	case KindAggregate:
		return "Aggregate"
	case KindAggrVBN:
		return "AggrVBN"
	case KindVolume:
		return "Volume"
	case KindVolumeLogical:
		return "VolLogical"
	case KindStripe:
		return "Stripe"
	case KindVolumeVBN:
		return "VolVBN"
	case KindRange:
		return "Range"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Affinity is a node in the hierarchy: a serial execution context for
// messages, excluded by its ancestors and descendants.
type Affinity struct {
	name     string
	kind     Kind
	parent   *Affinity
	children []*Affinity
	depth    int

	running    bool // a message of this affinity is executing (or blocked)
	descActive int  // number of active messages in strict descendants

	pending fifo.Queue[*message] // not-yet-dispatched messages

	obsTid int32 // interned trace track id + 1; 0 when not yet interned

	Executed uint64 // messages completed
}

// track returns the affinity's trace track id under obs.PidAffinity,
// interning its name on first use.
func (a *Affinity) track(tr *obs.Tracer) int32 {
	if a.obsTid == 0 {
		a.obsTid = tr.Track(obs.PidAffinity, a.name) + 1
	}
	return a.obsTid - 1
}

// msgNames caches a span name per accounting category so the hot dispatch
// path does not concatenate strings.
var msgNames [sim.NumCategories]string

func init() {
	for c := sim.Category(0); c < sim.NumCategories; c++ {
		msgNames[c] = c.String() + " msg"
	}
}

// Name returns the affinity's debug name.
func (a *Affinity) Name() string { return a.name }

// Kind returns the affinity's kind.
func (a *Affinity) Kind() Kind { return a.kind }

// Children returns the affinity's children.
func (a *Affinity) Children() []*Affinity { return a.children }

// message is one unit of Waffinity work. Send takes it from the scheduler's
// pool and the worker that ran it returns it, zeroed, once done has
// returned; a worker killed mid-message unwinds past that and never does.
type message struct {
	aff      *Affinity
	cat      sim.Category
	fn       func(*sim.Thread)
	enqueued sim.Time
	done     func() // optional completion callback (scheduler context)
}

// call is one Call's completion: the caller waits on wq until done, the
// method value complete bound once, marks the message completed. Call takes
// it from the scheduler's pool and returns it once it has seen its
// message complete; a caller killed while waiting never returns it, so a
// late completion of its message can never wake the record's next owner.
type call struct {
	wq        *sim.WaitQueue
	completed bool
	done      func()
}

func (c *call) complete() {
	c.completed = true
	c.wq.Signal()
}

// Stats summarizes scheduler activity (the `stat` tag is read by wafl.Stats).
type Stats struct {
	Sent       uint64
	Executed   uint64
	EmptyWakes uint64 // idle-worker wake-ups that found every queued message excluded
	MaxQueued  int    `stat:"max"`

	// QueueWait is each message's wait from Send to dispatch: the live
	// histogram, which wafl.Stats copies.
	QueueWait *obs.Histogram

	// The recycled op state's pools (DESIGN §9): messages, Call's completions.
	MsgPool, CallPool fifo.PoolStats
}

// Scheduler dispatches affinity messages onto a pool of simulated worker
// threads while enforcing hierarchical exclusion.
type Scheduler struct {
	s    *sim.Scheduler
	root *Affinity

	// affinities that currently have pending messages, in first-pending
	// order; scanned for the dispatchable message with the oldest head.
	pendingAffs []*Affinity
	// blocked: the last scan of pendingAffs found nothing dispatchable and
	// nothing it read has changed since. Send and finish clear it; a pop and a
	// start only follow a scan that found something, which leaves it clear.
	blocked bool

	idle      *sim.WaitQueue
	nworkers  int
	stats     Stats
	queued    int
	dispatch  sim.Duration // per-message scheduler CPU overhead
	announced bool

	// Recycled state (DESIGN §9): messages come back when their worker has
	// run them and their completion, call records when their caller has seen
	// that completion.
	msgPool  fifo.Pool[*message]
	callPool fifo.Pool[*call]
}

// New creates a Waffinity scheduler with the given worker-pool size and a
// Serial root affinity. dispatchCost is the simulated CPU charged (to
// CatWaffinity) for each message dispatch — the scheduler's own overhead.
func New(s *sim.Scheduler, workers int, dispatchCost sim.Duration) *Scheduler {
	ws := &Scheduler{
		s:        s,
		root:     &Affinity{name: "Serial", kind: KindSerial},
		idle:     sim.NewWaitQueue(s, "waffinity.idle"),
		nworkers: workers,
		dispatch: dispatchCost,
		stats:    Stats{QueueWait: obs.NewHistogram("waffinity.queue_wait")},
	}
	ws.msgPool = fifo.NewPool(&ws.stats.MsgPool, func() *message { return new(message) })
	ws.callPool = fifo.NewPool(&ws.stats.CallPool, func() *call {
		c := &call{wq: sim.NewWaitQueue(s, "waffinity.call")}
		c.done = c.complete
		return c
	})
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("waff-worker-%d", i)
		s.Go(name, sim.CatWaffinity, func(t *sim.Thread) { ws.workerLoop(t) })
	}
	return ws
}

// Root returns the Serial affinity at the root of the hierarchy.
func (w *Scheduler) Root() *Affinity { return w.root }

// Stats returns scheduler statistics.
func (w *Scheduler) Stats() Stats { return w.stats }

// AddChild creates a new affinity under parent.
func (w *Scheduler) AddChild(parent *Affinity, kind Kind, name string) *Affinity {
	a := &Affinity{name: name, kind: kind, parent: parent, depth: parent.depth + 1}
	parent.children = append(parent.children, a)
	return a
}

// Send enqueues fn as a message in affinity aff. fn executes on a worker
// thread with its CPU attributed to cat. done, if non-nil, fires in
// scheduler context when the message completes.
func (w *Scheduler) Send(aff *Affinity, cat sim.Category, fn func(*sim.Thread), done func()) {
	m := w.msgPool.Get()
	*m = message{aff: aff, cat: cat, fn: fn, enqueued: w.s.Now(), done: done}
	if aff.pending.Len() == 0 {
		w.pendingAffs = append(w.pendingAffs, aff)
	}
	aff.pending.Push(m)
	w.blocked = false
	w.stats.Sent++
	w.queued++
	if w.queued > w.stats.MaxQueued {
		w.stats.MaxQueued = w.queued
	}
	if tr := w.s.Tracer(); tr != nil {
		now := int64(w.s.Now())
		tr.InstantArg(obs.PidAffinity, aff.track(tr), "waffinity", "enqueue", now, int64(aff.pending.Len()))
		tr.Counter(obs.PidAffinity, 0, "queued msgs", now, int64(w.queued))
	}
	w.idle.Signal()
}

// Call sends fn to aff and blocks the calling simulated thread until the
// message completes. t must not be a Waffinity worker (a worker waiting on
// another message could deadlock the pool).
func (w *Scheduler) Call(t *sim.Thread, aff *Affinity, cat sim.Category, fn func(*sim.Thread)) {
	c := w.callPool.Get()
	w.Send(aff, cat, fn, c.done)
	for !c.completed {
		c.wq.Wait(t)
	}
	c.completed = false
	w.callPool.Put(c)
}

// canRun reports whether the head message of aff may start now: the
// affinity itself, all ancestors, and all descendants must be inactive.
// To guarantee progress for coarse affinities (e.g. Serial), a message also
// yields to any ancestor whose own head message has been waiting longer —
// otherwise a steady stream of Stripe messages would starve a pending
// Serial message forever.
func canRun(aff *Affinity) bool {
	if aff.running || aff.descActive > 0 {
		return false
	}
	var head sim.Time = -1
	if aff.pending.Len() > 0 {
		head = aff.pending.Peek().enqueued
	}
	for anc := aff.parent; anc != nil; anc = anc.parent {
		if anc.running {
			return false
		}
		if anc.pending.Len() > 0 && anc.pending.Peek().enqueued <= head {
			return false
		}
	}
	return true
}

// start marks aff active and propagates to ancestors.
func start(aff *Affinity) {
	aff.running = true
	for anc := aff.parent; anc != nil; anc = anc.parent {
		anc.descActive++
	}
}

// finish marks aff inactive and propagates to ancestors.
func finish(aff *Affinity) {
	aff.running = false
	for anc := aff.parent; anc != nil; anc = anc.parent {
		anc.descActive--
	}
}

// pickMessage removes and returns the dispatchable message whose head has
// waited longest, or nil if nothing can run — from memory, when w.blocked: of
// the workers wakeIdle signals at one instant only the first scans.
func (w *Scheduler) pickMessage() *message {
	if w.blocked {
		return nil
	}
	bestIdx := -1
	var best *message
	for i, aff := range w.pendingAffs {
		if aff.pending.Len() == 0 {
			continue
		}
		head := aff.pending.Peek()
		if !canRun(aff) {
			continue
		}
		if best == nil || head.enqueued < best.enqueued {
			best, bestIdx = head, i
		}
	}
	if best == nil {
		w.blocked = true
		return nil
	}
	aff := w.pendingAffs[bestIdx]
	aff.pending.Pop()
	if aff.pending.Len() == 0 {
		w.pendingAffs = append(w.pendingAffs[:bestIdx], w.pendingAffs[bestIdx+1:]...)
	}
	w.queued--
	return best
}

// workerLoop is the body of each pool thread.
func (w *Scheduler) workerLoop(t *sim.Thread) {
	var m *message
	// admitted runs on whichever thread dispatches this worker's wake-up
	// (sim.WaitQueue.WaitUntil) and leaves what it picked in m: a wake-up that
	// finds every queued message excluded — most do — switches into nobody.
	admitted := func() bool {
		if m = w.pickMessage(); m == nil {
			w.stats.EmptyWakes++
		}
		return m != nil
	}
	for {
		if m = w.pickMessage(); m == nil {
			w.idle.WaitUntil(t, admitted)
		}
		start(m.aff)
		dispatchAt := w.s.Now()
		w.stats.QueueWait.Observe(int64(dispatchAt - m.enqueued))
		if w.dispatch > 0 {
			t.ConsumeAs(sim.CatWaffinity, w.dispatch)
		}
		prev := t.SetCat(m.cat)
		m.fn(t)
		t.SetCat(prev)
		finish(m.aff)
		w.blocked = false
		m.aff.Executed++
		w.stats.Executed++
		if tr := w.s.Tracer(); tr != nil {
			// The affinity's exclusion guarantee means execution spans on
			// one affinity track never overlap.
			tr.SpanArg(obs.PidAffinity, m.aff.track(tr), m.cat.String(), msgNames[m.cat],
				int64(dispatchAt), int64(w.s.Now()), int64(dispatchAt-m.enqueued))
		}
		if m.done != nil {
			m.done()
		}
		*m = message{}
		w.msgPool.Put(m)
		// Completing this message may have unblocked ancestors or
		// descendants; wake idle workers to re-scan.
		w.wakeIdle()
	}
}

// wakeIdle wakes as many idle workers as there are queued messages (capped
// at the number of idle workers).
func (w *Scheduler) wakeIdle() {
	n := w.queued
	if n > w.idle.Len() {
		n = w.idle.Len()
	}
	for i := 0; i < n; i++ {
		w.idle.Signal()
	}
}
