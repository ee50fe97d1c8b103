// Package sim implements a deterministic discrete-event simulation kernel
// used to model a many-core storage server on an arbitrary host.
//
// The kernel provides simulated time, a fixed number of simulated CPU cores,
// and simulated threads. Each simulated thread is backed by a goroutine, but
// at most one goroutine executes at any real instant: the one holding the
// execution token. Every hand-over of the token is an unbuffered channel
// operation, so all simulation state is data-race free by construction and
// runs, deterministically, even with GOMAXPROCS=1.
//
// There is no scheduler goroutine. Whoever holds the token runs the event
// loop: Run and Drain start it on the caller's goroutine, and a thread that
// parks in a primitive (or whose body returns) carries it on from where it
// stands — it pops events, runs After callbacks in place, and on a
// thread-resume event either simply returns (the event resumes the parking
// thread itself: no goroutine switch) or sends on the target's resume channel
// and blocks on its own (one switch, where a round trip through a scheduler
// goroutine cost two). The goroutine inside Run/Drain takes part as a
// pseudo-thread, main, with a resume channel of its own (what used to be the
// yield channel): it is resumed, and so gets the token back, only when nothing
// more is due or a halt is pending.
// Which goroutine runs the loop never affects what the loop does: events are
// dispatched strictly in (time, posting order), so Events(), halt points and
// every simulated result are the same as with a central scheduler.
//
// Events are values — an After callback, or a thread to resume (flagged when
// the resume is also the end of its CPU burst) — kept in a binary heap; posting
// one allocates nothing. Events posted for the current instant (every Signal,
// Unlock, Yield and Go) skip the heap for a FIFO lane that is drained after
// the heap entries due now and before the clock advances. That is the same
// order: a heap entry due now was posted at an earlier instant, so before
// anything in the lane, and nothing posted later can be due sooner.
//
// Shutdown and KillRange run outside Run. They resume each victim
// synchronously with its kill flag set; the victim panics out of whatever it
// was blocked in — a primitive, or the event loop after a hand-off — and
// resumes main directly, dispatching nothing on its way out.
//
// Threads interact with the kernel through blocking primitives:
//
//   - Consume / ConsumeAs: occupy a simulated core for a CPU burst, queueing
//     behind other runnable threads when all cores are busy.
//   - Sleep: advance simulated time without occupying a core (I/O, timers).
//   - Mutex: a simulated lock with FIFO waiters and contention accounting.
//   - WaitQueue: a condition-variable-like queue for building channels,
//     message queues, and caches.
//
// CPU time is attributed to named categories (client, cleaner, infrastructure,
// ...) so experiments can report per-component core usage exactly like the
// paper's instrumented kernel does.
package sim
