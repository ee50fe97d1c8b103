package sim

import (
	"iter"
	"os"
	"runtime/debug"

	"wafl/internal/obs"
)

// Thread is a simulated thread of execution. It is backed by a coroutine
// (iter.Pull), so at most one simulated thread executes at any real instant
// and thread bodies may freely read and write shared simulation state without
// host-level synchronization.
//
// All Thread methods must be called from the thread's own body function.
type Thread struct {
	s    *Scheduler
	name string
	cat  Category // default CPU accounting category

	// The coroutine: loop, or a kill, switches into it with next and the body
	// back out with yield. Nil once finished, like ready: Scheduler.threads holds
	// every thread for good and must not hold a dead body's closures with it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// pending CPU burst
	burstCat   Category
	burstDur   Duration
	burstStart Time

	busy   Duration // cumulative CPU consumed by this thread
	done   bool
	killed bool // KillRange, Shutdown: unwind at next resume

	// The WaitQueue wait in progress; in WaitUntil, also what dispatch consults.
	waitStart Time
	waitQ     *WaitQueue
	ready     func() bool

	// tracing bookkeeping (inert unless a tracer is attached)
	burstCore int32 // core lane of the burst in flight, -1 if unassigned
	queuedAt  Time  // when the thread entered the ready queue, -1 if not
	obsTid    int32 // interned obs track id + 1; 0 means not yet interned
}

// killSentinel is the panic value that unwinds a killed thread.
type killSentinel struct{}

// spawn builds a thread and its coroutine, scheduled to start at time at.
func (s *Scheduler) spawn(at Time, name string, cat Category, fn func(*Thread)) *Thread {
	name = s.spawnPrefix + name
	t := &Thread{
		s:         s,
		name:      name,
		cat:       cat,
		burstCore: -1,
		queuedAt:  -1,
	}
	s.live++
	s.threads = append(s.threads, t)
	// No stop: a kill resumes the thread to unwind itself, so all run to the end.
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			r := recover()
			t.done = true
			s.live--
			t.next, t.yield, t.waitQ, t.ready = nil, nil, nil, nil
			if _, kill := r.(killSentinel); r != nil && !kill {
				// Real failure, in the body or in a callback this thread was
				// dispatching. Pull rethrows r in the caller of Run, whose
				// traceback cannot show this stack: print it while it exists.
				os.Stderr.WriteString("sim: thread " + t.name + " panicked in:\n")
				debug.PrintStack()
				panic(r)
			}
			if t.killed {
				return // KillRange is waiting; dispatch nothing
			}
			// The body returned mid-Run holding the token: carry the event
			// loop on until it can be handed to someone else.
			s.dispatch(t)
		}()
		if !t.killed { // else killed before its start event
			fn(t)
		}
	})
	s.post(at, action{t: t})
	return t
}

// Go spawns a new simulated thread that begins executing fn at the current
// simulated time. cat is the default CPU accounting category for the
// thread's Consume calls.
func (s *Scheduler) Go(name string, cat Category, fn func(*Thread)) *Thread {
	return s.spawn(s.now, name, cat, fn)
}

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Tracer returns the scheduler's tracer (nil when tracing is off). Upper
// layers use it together with TrackID to emit thread-scoped trace events.
func (t *Thread) Tracer() *obs.Tracer { return t.s.tr }

// TrackID returns the thread's interned trace track id under
// obs.PidThreads, registering it (by thread name) on first use.
func (t *Thread) TrackID() int32 {
	if t.obsTid == 0 {
		t.obsTid = t.s.tr.Track(obs.PidThreads, t.name) + 1
	}
	return t.obsTid - 1
}

// Now returns the current simulated time.
func (t *Thread) Now() Time { return t.s.now }

// Busy returns the cumulative CPU time this thread has consumed. The dynamic
// cleaner-thread tuner uses deltas of this value to compute per-thread
// utilization over its 50ms windows.
func (t *Thread) Busy() Duration { return t.busy }

// SetCat changes the thread's default accounting category and returns the
// previous one. Waffinity workers use it so that each message's Consume
// calls are attributed to the subsystem that sent the message.
func (t *Thread) SetCat(cat Category) Category {
	prev := t.cat
	t.cat = cat
	return prev
}

// park blocks the thread until an event resumes it. The thread holds the
// execution token, so it runs the event loop itself until then.
func (t *Thread) park() { t.s.dispatch(t) }

// await yields to loop until it switches back into t. A resume by
// Shutdown/KillRange unwinds the thread instead.
func (t *Thread) await() {
	t.yield(struct{}{})
	if t.killed {
		panic(killSentinel{})
	}
}

// Consume occupies a simulated core for d of CPU work, attributed to the
// thread's default category. If all cores are busy the thread first waits,
// FIFO, for a core.
func (t *Thread) Consume(d Duration) { t.ConsumeAs(t.cat, d) }

// ConsumeAs is Consume with an explicit accounting category. Waffinity
// worker threads use it to attribute each message's cost to the subsystem
// that sent the message.
func (t *Thread) ConsumeAs(cat Category, d Duration) {
	if d <= 0 {
		return
	}
	s := t.s
	t.burstCat = cat
	t.burstDur = d
	if s.freeCores > 0 {
		s.freeCores--
		s.startBurst(t)
	} else {
		t.queuedAt = s.now
		s.readyQ.Push(t)
	}
	t.park()
}

// Sleep blocks the thread for d simulated time without occupying a core.
func (t *Thread) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	s := t.s
	s.post(s.now+Time(d), action{t: t})
	t.park()
}

// Yield reschedules the thread behind any other events already queued at the
// current simulated time.
func (t *Thread) Yield() {
	s := t.s
	s.post(s.now, action{t: t})
	t.park()
}
