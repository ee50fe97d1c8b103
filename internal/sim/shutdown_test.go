package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestShutdownTerminatesThreads(t *testing.T) {
	s := New(2, 1)
	for i := 0; i < 5; i++ {
		s.Go("looper", CatOther, func(th *Thread) {
			for {
				th.Consume(10 * Microsecond)
				th.Sleep(10 * Microsecond)
			}
		})
	}
	s.Run(Time(Millisecond))
	if s.Live() != 5 {
		t.Fatalf("live = %d", s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 {
		t.Fatalf("live after shutdown = %d", s.Live())
	}
	s.Shutdown() // idempotent
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for k := 0; k < 10; k++ {
		s := New(2, 1)
		m := NewMutex(s, "m")
		q := NewWaitQueue(s, "q")
		for i := 0; i < 20; i++ {
			i := i
			s.Go("w", CatOther, func(th *Thread) {
				for {
					th.Consume(Microsecond)
					if i%3 == 0 {
						q.Wait(th) // blocks forever
					}
					m.Lock(th)
					th.Consume(Microsecond)
					m.Unlock(th)
				}
			})
		}
		s.Run(Time(100 * Microsecond))
		s.Shutdown()
	}
	// Give exited goroutines a moment to be reaped.
	for i := 0; i < 50; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestKillRangeTerminatesOnlyNewThreads(t *testing.T) {
	s := New(2, 1)
	oldAlive := true
	s.Go("old", CatOther, func(th *Thread) {
		for oldAlive {
			th.Sleep(10 * Microsecond)
		}
	})
	mark := s.ThreadMark()
	newRan := 0
	for i := 0; i < 3; i++ {
		s.Go("new", CatOther, func(th *Thread) {
			for {
				newRan++
				th.Sleep(10 * Microsecond)
			}
		})
	}
	s.Run(Time(Millisecond))
	ranBefore := newRan
	if ranBefore == 0 {
		t.Fatal("new threads never ran")
	}
	s.KillRange(mark, s.ThreadMark())
	if s.Live() != 1 {
		t.Fatalf("live = %d, want only the old thread", s.Live())
	}
	s.Run(Time(2 * Millisecond))
	if newRan != ranBefore {
		t.Fatal("killed threads kept running")
	}
	oldAlive = false
	s.Run(Time(3 * Millisecond))
	if s.Live() != 0 {
		t.Fatalf("old thread did not exit cleanly: live=%d", s.Live())
	}
}

func TestKillRangeWhileThreadInReadyQueue(t *testing.T) {
	// One core, several CPU-hungry threads: some sit in the ready queue.
	s := New(1, 1)
	mark := s.ThreadMark()
	for i := 0; i < 4; i++ {
		s.Go("hog", CatOther, func(th *Thread) {
			for {
				th.Consume(100 * Microsecond)
			}
		})
	}
	// Stop mid-burst: some threads are running, some queued.
	s.Run(Time(150 * Microsecond))
	s.KillRange(mark, s.ThreadMark())
	if s.Live() != 0 {
		t.Fatalf("live = %d after KillRange", s.Live())
	}
	// The scheduler must still work for new threads.
	done := false
	s.Go("fresh", CatOther, func(th *Thread) {
		th.Consume(10 * Microsecond)
		done = true
	})
	s.Run(Time(Second))
	if !done {
		t.Fatal("scheduler unusable after KillRange")
	}
}

func TestKilledThreadStaleEventsAreNoOps(t *testing.T) {
	s := New(1, 1)
	mark := s.ThreadMark()
	s.Go("sleeper", CatOther, func(th *Thread) {
		th.Sleep(500 * Microsecond) // wakeup event remains in the heap
	})
	q := NewWaitQueue(s, "q")
	s.Go("waiter", CatOther, func(th *Thread) {
		q.WaitUntil(th, func() bool { t.Error("ready ran for a dead thread"); return true })
	})
	s.Run(Time(100 * Microsecond))
	q.Signal() // wakeup event remains in the lane
	s.KillRange(mark, s.ThreadMark())
	// Run past the stale wakeups: must not hang, panic or consult the waiter's
	// condition.
	s.Run(Time(2 * Millisecond))
	if s.Live() != 0 || s.Events() != 4 {
		t.Fatalf("live = %d, events = %d, want 0 and two starts and two stale wake-ups", s.Live(), s.Events())
	}
}

// TestKillEveryThreadState holds two sets of threads, one thread per state a
// kill can find it in: never started, body returned, mid-burst on the only
// core, queued for it, parked in a WaitQueue, parked in WaitUntil with one
// wake-up refused, and parked in Sleep. Every one that parked did so by
// dispatching the next one's start, so all but the last are also blocked
// after handing the token to another thread, and the last after handing it
// back to Run. KillRange takes the first set and Shutdown the second. Neither
// may dispatch an event or let a body run on, and each must leave the dead
// threads without a coroutine — no goroutine, and no handle through which
// Scheduler.threads would pin the body's closure or its WaitUntil condition.
func TestKillEveryThreadState(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(1, 1)
	q := NewWaitQueue(s, "never")
	ranOn, refusals := 0, 0
	var threads []*Thread
	spawnSet := func() {
		for _, th := range []struct {
			name string
			body func(*Thread)
		}{
			{"returned", func(*Thread) {}},
			{"bursting", func(th *Thread) { th.Consume(Second) }}, // the second set's queues behind the first's
			{"queued", func(th *Thread) { th.Consume(Second) }},
			{"waiting", func(th *Thread) { q.Wait(th) }},
			{"refused", func(th *Thread) {
				gate := NewWaitQueue(s, "gate")
				s.After(0, func() { gate.Signal() })
				gate.WaitUntil(th, func() bool { refusals++; return false })
			}},
			{"sleeping", func(th *Thread) { th.Sleep(Second) }},
		} {
			threads = append(threads, s.Go(th.name, CatOther, func(t *Thread) { th.body(t); ranOn++ }))
		}
		threads = append(threads, s.GoAt(Time(Second), "unstarted", CatOther, func(*Thread) { ranOn++ }))
	}
	spawnSet()
	half := s.ThreadMark()
	spawnSet()
	s.Run(Time(Millisecond))

	check := func(when string, live int, dead []*Thread) {
		t.Helper()
		if s.Live() != live || ranOn != 2 || refusals != 2 || s.Events() != 16 {
			t.Fatalf("%s: live=%d ranOn=%d refusals=%d events=%d, want %d, the 2 bodies that returned, the 2 wake-ups refused, and 16 events (12 starts, those 2 and their callbacks)",
				when, s.Live(), ranOn, refusals, s.Events(), live)
		}
		for _, th := range dead {
			if !th.done || th.next != nil || th.yield != nil || th.ready != nil {
				t.Fatalf("%s: %s: done=%v, coroutine kept=%v, WaitUntil condition kept=%v",
					when, th.name, th.done, th.next != nil || th.yield != nil, th.ready != nil)
			}
		}
	}
	check("after Run", 12, []*Thread{threads[0], threads[half]})
	s.KillRange(0, half)
	check("after KillRange", 6, threads[:half+1])
	for _, th := range threads[half+1:] {
		if th.done || th.next == nil {
			t.Fatalf("KillRange reached %s of the surviving set", th.name)
		}
	}
	s.Shutdown()
	check("after Shutdown", 0, threads)
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("goroutines: %d before New, %d after Shutdown", baseline, n)
	}
}
