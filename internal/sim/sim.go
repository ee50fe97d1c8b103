package sim

import (
	"fmt"
	"math/rand"

	"wafl/internal/fifo"
	"wafl/internal/obs"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * 1000
	Second      Duration = 1000 * 1000 * 1000
)

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis returns the duration as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Micros returns the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Millis())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// action is what an event does when it fires: run a plain After callback
// (fn != nil), or resume thread t — which also completes t's CPU burst when
// burst is set. It stays at three fields so that next and pop return it in
// registers; an event returned whole goes through the stack, which doubled the
// cost of dispatching one.
type action struct {
	fn    func()
	t     *Thread
	burst bool
}

// event is an action scheduled for a future instant, stored by value. Events
// with equal timestamps fire in insertion (seq) order, which keeps the
// simulation deterministic.
type event struct {
	at  Time
	seq uint64
	do  action
}

// eventHeap is a binary min-heap of future events ordered by (at, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// pop removes the earliest event and returns its action.
func (h *eventHeap) pop() action {
	old := *h
	top := old[0].do
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // drop the callback and thread references
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Scheduler is the discrete-event simulation kernel: an event queue, a model
// of N CPU cores, and the set of simulated threads multiplexed onto them.
//
// The zero value is not usable; construct with New. A Scheduler is not safe
// for concurrent use from multiple goroutines; all access must come either
// from outside Run (setup/teardown) or from simulated threads, which the
// kernel serializes.
type Scheduler struct {
	now  Time
	seq  uint64
	heap eventHeap
	// lane holds the events posted for the current instant (every Signal,
	// Unlock, Yield and Go), in posting order. It is dispatched after the heap
	// entries with at <= now and before the clock advances, which is exactly
	// (at, seq) order: a heap entry due now was posted while the clock was
	// earlier — hence before anything in the lane — and nothing posted from
	// now on can precede the lane. Lane entries are due at now (the clock
	// never advances past a non-empty lane), so they carry no at or seq.
	lane  fifo.Queue[action]
	until Time // dispatch bound of the Run/Drain in progress

	cores     int
	freeCores int
	readyQ    fifo.Queue[*Thread] // threads with a pending CPU burst

	busy       [NumCategories]Duration
	dispatched uint64 // events processed
	switches   uint64 // thread coroutines resumed by loop

	// target is the thread to switch into next, named by whoever yields to
	// loop; nil once nothing more is due, which ends the Run/Drain.
	target      *Thread
	rng         *rand.Rand
	running     bool
	live        int       // live (not yet finished) threads
	threads     []*Thread // every thread ever spawned (for KillRange)
	spawnPrefix string    // prepended to every spawned thread's name

	// Halt state: crash-schedule fault injection stops the event loop at a
	// precise, reproducible point — between two events — so that a caller
	// can Crash() the system exactly there. haltAt is an event-count
	// threshold (0 = disabled); haltReq is a one-shot request raised from
	// inside an event (e.g. a CP phase hook).
	haltAt  uint64
	haltReq bool
	halted  bool

	// tr is the observability spine; nil means tracing is disabled and
	// every emission point reduces to one pointer comparison.
	tr *obs.Tracer
	// freeCoreIDs assigns stable core identities to bursts so the trace
	// can render one lane per core; maintained only while tracing.
	freeCoreIDs []int32
}

// SetTracer attaches an observability tracer (nil disables tracing). It
// must be called before the simulation starts executing CPU bursts —
// in practice, immediately after New — so core lanes get stable
// identities. The tracer never influences simulation behaviour: results
// are bit-identical with tracing on or off.
func (s *Scheduler) SetTracer(tr *obs.Tracer) {
	s.tr = tr
	s.freeCoreIDs = nil
	if tr == nil {
		return
	}
	for i := 0; i < s.cores; i++ {
		tr.Track(obs.PidCores, fmt.Sprintf("core%d", i))
	}
	// Stack lowest-id on top; trim to the currently free cores if bursts
	// are somehow already in flight.
	for i := s.freeCores - 1; i >= 0; i-- {
		s.freeCoreIDs = append(s.freeCoreIDs, int32(i))
	}
}

// Tracer returns the attached tracer, or nil when tracing is off. Every
// subsystem reaches the observability layer through this accessor.
func (s *Scheduler) Tracer() *obs.Tracer { return s.tr }

// Shutdown terminates every simulated thread so the scheduler and all state
// reachable from thread bodies become garbage-collectable. The scheduler is
// unusable afterwards. Must not be called while Run is active.
func (s *Scheduler) Shutdown() {
	s.KillRange(0, len(s.threads))
	s.threads = nil
	s.heap = nil
	s.lane = fifo.Queue[action]{}
}

// ThreadMark returns a marker identifying the threads spawned so far; a
// later KillFrom(mark) terminates exactly the threads spawned after it.
func (s *Scheduler) ThreadMark() int { return len(s.threads) }

// SetSpawnPrefix prepends p to the name of every subsequently spawned
// thread. A cluster of subsystems sharing one scheduler uses it to keep
// thread (and trace-track) names distinct per subsystem; the empty prefix
// leaves names exactly as passed to Go.
func (s *Scheduler) SetSpawnPrefix(p string) { s.spawnPrefix = p }

// KillFrom terminates every thread spawned at or after the given mark — the
// crash model for one subsystem sharing the scheduler with its recovered
// successor: the old system's threads must stop executing (a real crash
// destroys them), while the scheduler lives on for the new instance. Must
// not be called while Run is active.
func (s *Scheduler) KillFrom(mark int) {
	s.KillRange(mark, len(s.threads))
}

// KillRange terminates exactly the threads with spawn index in [lo, hi) —
// the crash model for ONE member of a cluster sharing the scheduler:
// threads spawned before and after the member's build window keep running
// (survivor members serve traffic through the crash). Must not be called
// while Run is active.
func (s *Scheduler) KillRange(lo, hi int) {
	if s.running {
		panic("sim: KillRange during Run")
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.threads) {
		hi = len(s.threads)
	}
	if lo >= hi {
		return
	}
	for _, t := range s.threads[lo:hi] {
		t.killed = true
	}
	// Purge killed threads waiting for a CPU: they must never take a core.
	for _, t := range s.readyQ.TakeAll() {
		if !t.killed {
			s.readyQ.Push(t)
		}
	}
	// Resumed with its kill flag set, a victim panics out of whatever primitive
	// it is parked in, or never starts its body, and dispatches nothing.
	for _, t := range s.threads[lo:hi] {
		if !t.done {
			t.next()
		}
	}
}

// New returns a Scheduler modelling the given number of CPU cores, with all
// simulation randomness derived from seed.
func New(cores int, seed int64) *Scheduler {
	if cores < 1 {
		panic("sim: scheduler needs at least one core")
	}
	return &Scheduler{
		cores:     cores,
		freeCores: cores,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Cores returns the number of simulated CPU cores.
func (s *Scheduler) Cores() int { return s.cores }

// Rand returns the simulation's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Live returns the number of simulated threads that have been spawned and
// have not yet returned.
func (s *Scheduler) Live() int { return s.live }

// Events returns the number of events processed so far (a cheap progress and
// determinism fingerprint).
func (s *Scheduler) Events() uint64 { return s.dispatched }

// Switches returns how many times Run/Drain has switched into a thread's
// coroutine so far: one per event that resumed a thread other than the one
// that dispatched it. Callbacks and self-resumes switch nothing. As repeatable
// as Events, given the same sequence of Run/Drain calls and halts.
func (s *Scheduler) Switches() uint64 { return s.switches }

// HaltAtEvent arranges for Run/Drain to stop — between events, without
// advancing the clock further — once the dispatched-event count reaches n.
// Because the simulation is deterministic, (seed, event index) names a
// reproducible instant: the crash-schedule sweep uses this to crash the
// system at every point of a run. Pass 0 to disable.
func (s *Scheduler) HaltAtEvent(n uint64) { s.haltAt = n }

// RequestHalt asks the event loop to stop after the currently executing
// event. It is safe to call from inside event or simulated-thread context
// (e.g. a CP phase hook); the caller should park promptly so the event
// finishes.
func (s *Scheduler) RequestHalt() { s.haltReq = true }

// Halted reports whether the last Run/Drain stopped early because of
// HaltAtEvent or RequestHalt rather than reaching its time/queue limit.
func (s *Scheduler) Halted() bool { return s.halted }

// shouldHalt checks and consumes pending halt conditions.
func (s *Scheduler) shouldHalt() bool {
	if s.haltReq || (s.haltAt != 0 && s.dispatched >= s.haltAt) {
		s.haltReq = false
		s.halted = true
		return true
	}
	return false
}

// CPU returns a snapshot of cumulative per-category busy time.
func (s *Scheduler) CPU() CPUStats {
	return CPUStats{Busy: s.busy, Wall: s.now}
}

// post schedules a to fire at time at (clamped to now). Only heap entries need
// a seq: the zero-delay lane is ordered by position.
func (s *Scheduler) post(at Time, a action) {
	if at <= s.now {
		s.lane.Push(a)
		return
	}
	s.seq++
	s.heap.push(event{at: at, seq: s.seq, do: a})
}

// After schedules fn to run in the scheduler context after d simulated time.
// fn must not block; it may signal WaitQueues, post further events, and
// mutate simulation state. Use it for I/O completions and periodic ticks.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.post(s.now+Time(d), action{fn: fn})
}

// Run processes events until the simulated clock reaches until, then advances
// the clock to exactly until and returns. Threads blocked at that point stay
// blocked; a subsequent Run continues the simulation.
//
// If a halt is pending (HaltAtEvent/RequestHalt), Run stops between events
// and leaves the clock at the last dispatched event's time — the state a
// crash at that event index would find.
func (s *Scheduler) Run(until Time) {
	s.loop(until)
	if s.halted || s.shouldHalt() {
		return
	}
	if s.now < until {
		s.now = until
	}
}

// RunFor runs the simulation for d more simulated time.
func (s *Scheduler) RunFor(d Duration) { s.Run(s.now + Time(d)) }

// Drain processes events until the event queue is empty or the simulated
// clock would exceed limit. It returns the number of events processed.
// Useful in tests to let in-flight work settle.
func (s *Scheduler) Drain(limit Time) int {
	return s.loop(limit)
}

// loop dispatches every event due by until, or up to a pending halt, and
// returns how many it dispatched. Once an event resumes a thread, loop is the
// trampoline: it switches into s.target, which carries the event loop on and
// yields back having named the next target, until one names none.
func (s *Scheduler) loop(until Time) int {
	if s.running {
		panic("sim: Run/Drain called reentrantly")
	}
	s.running = true
	defer func() { s.running, s.target = false, nil }() // a thread's panic leaves through here too
	s.halted = false
	s.until = until
	start := s.dispatched
	s.dispatch(nil)
	for s.target != nil {
		s.switches++
		s.target.next()
	}
	return int(s.dispatched - start)
}

// next removes the next event in (at, seq) order, advances the clock to it
// and returns its action. It reports false, leaving the clock alone, when no
// event is due by s.until or a halt is pending.
func (s *Scheduler) next() (action, bool) {
	fromHeap := len(s.heap) > 0 && (s.lane.Len() == 0 || s.heap[0].at <= s.now)
	at := s.now
	if fromHeap {
		at = s.heap[0].at
	} else if s.lane.Len() == 0 {
		return action{}, false
	}
	if at > s.until || s.shouldHalt() {
		return action{}, false
	}
	s.dispatched++
	if fromHeap {
		s.now = at
		return s.heap.pop(), true
	}
	return s.lane.Pop(), true
}

// dispatch runs the event loop on the caller, which holds the execution token:
// self is the calling thread — parking, or done and on its way out — or nil
// in loop. Callbacks run in place, as does the condition of a thread parked in
// WaitUntil, whose refusal ends the event. An event that resumes self ends the
// loop with no switch at all; one that resumes another thread names it as
// s.target and yields to loop, and that thread carries the event loop on when
// it next parks. When nothing more is due the target is nil, which ends loop.
// dispatch returns when self has the token again (a live thread), or at once
// after naming the target (loop, and a dying thread, which must not touch
// simulation state afterwards).
func (s *Scheduler) dispatch(self *Thread) {
	for {
		a, ok := s.next()
		t := a.t // nil when nothing is due
		switch {
		case !ok:
		case a.fn != nil:
			a.fn()
			continue
		default:
			if a.burst {
				s.finishBurst(t)
			}
			if t.done {
				continue // stale event of a killed thread
			}
			if t.ready != nil && !t.waitQ.admit(t) {
				continue // parked in WaitUntil and not ready: nobody to switch into
			}
		}
		if t != self {
			s.target = t
			if self != nil && !self.done {
				self.await()
			}
		}
		return
	}
}

// startBurst begins t's pending CPU burst now; completion is an event.
func (s *Scheduler) startBurst(t *Thread) {
	t.burstStart = s.now
	if s.tr != nil {
		if t.queuedAt >= 0 {
			s.tr.Observe("sim.runq_wait", int64(s.now-t.queuedAt))
			t.queuedAt = -1
		}
		if n := len(s.freeCoreIDs); n > 0 {
			t.burstCore = s.freeCoreIDs[n-1]
			s.freeCoreIDs = s.freeCoreIDs[:n-1]
		}
	}
	s.post(s.now+Time(t.burstDur), action{t: t, burst: true})
}

// finishBurst accounts t's completed burst and starts the next queued burst,
// if any; the dispatcher then resumes t.
func (s *Scheduler) finishBurst(t *Thread) {
	s.freeCores++
	s.busy[t.burstCat] += t.burstDur
	t.busy += t.burstDur
	if s.tr != nil && t.burstCore >= 0 {
		s.tr.Span(obs.PidCores, t.burstCore, t.burstCat.String(), t.name,
			int64(t.burstStart), int64(s.now))
		s.freeCoreIDs = append(s.freeCoreIDs, t.burstCore)
		t.burstCore = -1
	}
	if s.readyQ.Len() > 0 {
		s.freeCores--
		s.startBurst(s.readyQ.Pop())
	}
}
