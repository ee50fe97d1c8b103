// Package sim implements a deterministic discrete-event simulation kernel
// used to model a many-core storage server on an arbitrary host.
//
// The kernel provides simulated time, a fixed number of simulated CPU cores,
// and simulated threads. Each simulated thread is a coroutine (iter.Pull), and
// only the holder of the execution token — one of them, or the caller of Run —
// executes at any real instant. The token moves by coroutine switch alone,
// which never enters the Go scheduler, so all simulation state is data-race
// free by construction and every run is the same at any GOMAXPROCS.
//
// There is no scheduler thread. Whoever holds the token runs the event loop:
// Run and Drain start it in their caller, and a thread that parks in a
// primitive (or whose body returns) carries it on from where it stands — it
// pops events, runs After callbacks in place, and on a thread-resume event
// either simply returns (the event resumes the parking thread itself: no
// switch at all) or names the thread to resume and yields. Every yield lands
// in Run/Drain, the trampoline, which switches into the thread named (two
// switches per cross-thread resume; Stats.Switches counts the pairs) or, when none
// was named because nothing more is due or a halt is pending, returns. A
// thread parked in WaitQueue.WaitUntil is named only if the condition it left
// says so: the dispatcher runs it, as it would a callback, and a wake-up it
// refuses is an event like any other that switched into nobody.
// Who runs the loop never affects what the loop does: events are
// dispatched strictly in (time, posting order), so Events(), halt points and
// every simulated result are the same as with a central scheduler.
//
// A panic in a thread body, or in a callback a thread was dispatching, is
// rethrown by iter.Pull in the caller of Run; the thread prints its own stack
// first, which that caller's traceback lacks.
//
// Events are values — an After callback, or a thread to resume (flagged when
// the resume is also the end of its CPU burst) — kept in a binary heap; posting
// one allocates nothing. Events posted for the current instant (every Signal,
// Unlock, Yield and Go) skip the heap for a FIFO lane that is drained after
// the heap entries due now and before the clock advances. That is the same
// order: a heap entry due now was posted at an earlier instant, so before
// anything in the lane, and nothing posted later can be due sooner.
//
// Shutdown and KillRange run outside Run. They resume each victim with its
// kill flag set; the victim panics out of the event loop it yielded from and
// the primitive that parked it (or skips its body, if it never started),
// dispatches nothing on its way out, and keeps no handle on its coroutine.
//
// Threads interact with the kernel through blocking primitives:
//
//   - Consume / ConsumeAs: occupy a simulated core for a CPU burst, queueing
//     behind other runnable threads when all cores are busy.
//   - Sleep: advance simulated time without occupying a core (I/O, timers).
//   - Mutex: a simulated lock with FIFO waiters and contention accounting.
//   - WaitQueue: a condition-variable-like queue for building channels,
//     message queues, and caches. WaitUntil is Wait in a loop on a condition,
//     for a waiter most of whose wake-ups find it false (idle Waffinity workers).
//
// CPU time is attributed to named categories (client, cleaner, infrastructure,
// ...) so experiments can report per-component core usage exactly like the
// paper's instrumented kernel does.
package sim
