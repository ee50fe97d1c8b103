package sim

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wafl/internal/allocs"
)

// The event loop runs on whichever goroutine holds the execution token
// (dispatch in sim.go). These tests pin the edges of that hand-off.

func TestRunUntilBeforeNowDispatchesNothing(t *testing.T) {
	s := New(1, 1)
	s.RunFor(10 * Microsecond)
	fired := 0
	s.After(0, func() { fired++ }) // zero-delay lane
	s.After(Microsecond, func() { fired++ })
	now, events := s.Now(), s.Events()
	s.Run(now - Time(5*Microsecond))
	if n := s.Drain(now - 1); n != 0 {
		t.Fatalf("Drain before now dispatched %d events", n)
	}
	if fired != 0 || s.Events() != events || s.Now() != now || s.Halted() {
		t.Fatalf("Run(until < Now) moved: fired=%d events=%d->%d now=%v->%v halted=%v",
			fired, events, s.Events(), now, s.Now(), s.Halted())
	}
	s.Run(now)
	if fired != 1 || s.Now() != now {
		t.Fatalf("Run(Now) fired=%d now=%v, want the lane event only", fired, s.Now())
	}
}

func TestHaltWithLaneNonEmptyResumesInOrder(t *testing.T) {
	s := New(1, 1)
	at := Time(7 * Microsecond)
	var order []string
	lane := func(name string) func() {
		return func() {
			if s.Now() != at {
				t.Errorf("%s ran at %v, want %v", name, s.Now(), at)
			}
			order = append(order, name)
		}
	}
	s.After(Duration(at), func() {
		order = append(order, "heap1")
		s.After(0, lane("lane1"))
		s.After(0, lane("lane2"))
		s.RequestHalt()
	})
	// Due at the same instant but posted earlier than the lane entries, so it
	// must still run before them after the halt.
	s.After(Duration(at), func() {
		order = append(order, "heap2")
		s.After(0, lane("lane3"))
	})
	s.After(Duration(at)+1, lane("late"))
	s.Run(Time(Second))
	if !s.Halted() || s.Now() != at || len(order) != 1 {
		t.Fatalf("halted=%v now=%v order=%v, want halt after heap1 at %v", s.Halted(), s.Now(), order, at)
	}
	s.HaltAtEvent(s.Events() + 2) // stop again mid-lane
	s.Run(at)
	if !s.Halted() || s.Now() != at {
		t.Fatalf("halted=%v now=%v, want second halt at %v", s.Halted(), s.Now(), at)
	}
	s.HaltAtEvent(0)
	s.Run(at)
	want := []string{"heap1", "heap2", "lane1", "lane2", "lane3"}
	if s.Halted() || s.Now() != at || !reflect.DeepEqual(order, want) {
		t.Fatalf("halted=%v now=%v order=%v, want %v", s.Halted(), s.Now(), order, want)
	}
}

func TestDrainReturnsEventCount(t *testing.T) {
	s := New(1, 1)
	for i := 0; i < 5; i++ {
		s.After(Duration(i)*Microsecond, func() {})
	}
	s.Go("sleeper", CatOther, func(th *Thread) {
		th.Sleep(Microsecond)
		th.Consume(Microsecond)
	})
	s.HaltAtEvent(3)
	if n := s.Drain(Time(Second)); n != 3 || !s.Halted() {
		t.Fatalf("halted Drain returned %d (halted=%v), want 3", n, s.Halted())
	}
	s.HaltAtEvent(0)
	before := s.Events()
	n := s.Drain(Time(Second))
	// 5 callbacks + thread start + sleep wake-up + burst completion = 8 in
	// all, 3 of them before the halt.
	if n != 5 || uint64(n) != s.Events()-before || s.Live() != 0 {
		t.Fatalf("Drain returned %d, events %d->%d, live=%d", n, before, s.Events(), s.Live())
	}
	if s.Now() != Time(4*Microsecond) {
		t.Fatalf("Drain left the clock at %v, want the last event's time", s.Now())
	}
}

// TestKillThreadBlockedInsideDispatch kills threads in each of the three
// places a parked thread can be — inside dispatch after handing the token to
// another thread, after handing it back to Run, and never started — and a
// thread whose body swallows the unwinding panic. None may dispatch an event
// on its way out.
func TestKillThreadBlockedInsideDispatch(t *testing.T) {
	s := New(2, 1)
	fired := 0
	unwound := 0
	mark := s.ThreadMark()
	s.Go("swallower", CatOther, func(th *Thread) {
		defer func() { unwound++; recover() }()
		th.Sleep(Second)
	})
	s.Go("handed-off", CatOther, func(th *Thread) {
		defer func() { unwound++ }()
		th.Sleep(Second) // dispatches the next thread's start: hands off, blocks in dispatch
		t.Error("killed thread resumed")
	})
	s.Go("yielded", CatOther, func(th *Thread) {
		defer func() { unwound++ }()
		s.After(0, func() { fired++ })
		s.After(0, func() { fired++ })
		s.RequestHalt()
		th.Yield() // finds the halt: hands the token back to Run
		t.Error("killed thread resumed")
	})
	s.GoAt(Time(Second), "unstarted", CatOther, func(th *Thread) { t.Error("killed thread started") })
	end := s.ThreadMark()
	survivor := false
	s.Go("survivor", CatOther, func(th *Thread) {
		th.Sleep(Microsecond)
		survivor = true
	})
	s.Run(Time(Millisecond))
	if !s.Halted() || fired != 0 || s.Live() != 5 {
		t.Fatalf("setup: halted=%v fired=%d live=%d", s.Halted(), fired, s.Live())
	}
	now, events := s.Now(), s.Events()
	s.KillRange(mark, end)
	if s.Events() != events || fired != 0 || s.Now() != now {
		t.Fatalf("kill dispatched events: events %d->%d fired=%d now %v->%v", events, s.Events(), fired, now, s.Now())
	}
	if s.Live() != 1 || unwound != 3 {
		t.Fatalf("live=%d unwound=%d, want 1 survivor and 3 unwound bodies", s.Live(), unwound)
	}
	// The lane and the survivor carry on; the dead threads' stale wake-ups
	// are no-ops.
	s.Run(Time(2 * Second))
	if fired != 2 || !survivor || s.Live() != 0 {
		t.Fatalf("after kill: fired=%d survivor=%v live=%d", fired, survivor, s.Live())
	}
}

// TestThreadReturnMidRunKeepsDispatching: a thread whose body returns holds
// the token, so its dying goroutine carries the loop on — through callbacks,
// into other threads, and finally back to Run — and then exits.
func TestThreadReturnMidRunKeepsDispatching(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(1, 1)
	var order []string
	s.Go("short", CatOther, func(th *Thread) { order = append(order, "short") })
	s.After(Microsecond, func() { order = append(order, "cb1") })
	s.Go("long", CatOther, func(th *Thread) {
		th.Sleep(2 * Microsecond)
		order = append(order, "long")
	})
	s.After(3*Microsecond, func() { order = append(order, "cb2") })
	s.Go("last", CatOther, func(th *Thread) {
		th.Sleep(4 * Microsecond)
		order = append(order, "last") // returns with nothing left: token goes back to Run
	})
	s.Go("parked", CatOther, func(th *Thread) { NewWaitQueue(s, "never").Wait(th) })
	s.Run(Time(Second))
	want := []string{"short", "cb1", "long", "cb2", "last"}
	if !reflect.DeepEqual(order, want) || s.Live() != 1 || s.Now() != Time(Second) {
		t.Fatalf("order=%v live=%d now=%v, want %v", order, s.Live(), s.Now(), want)
	}
	s.Shutdown()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 200 {
			t.Fatalf("goroutines leaked: baseline=%d now=%d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventPathAllocs: posting and dispatching an event allocates nothing —
// events are values in the heap or the zero-delay lane, thread resumes carry
// no closure, and a WaitUntil keeps its condition in the Thread.
func TestEventPathAllocs(t *testing.T) {
	s := New(2, 1)
	defer s.Shutdown()
	nop := func() {}
	q, never := NewWaitQueue(s, "q"), NewWaitQueue(s, "never")
	m := NewMutex(s, "m")
	for i := 0; i < 2; i++ {
		s.Go("sleeper", CatOther, func(th *Thread) {
			for {
				th.Sleep(Microsecond)
			}
		})
	}
	woken := 0
	s.Go("waiter", CatOther, func(th *Thread) {
		for {
			q.Wait(th)
			m.Lock(th)
			th.Yield()
			m.Unlock(th)
			woken++
		}
	})
	refused := 0
	s.Go("refused", CatOther, func(th *Thread) {
		never.WaitUntil(th, func() bool { refused++; return false })
	})
	s.RunFor(10 * Microsecond)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"After+RunFor", func() { s.After(1, nop); s.RunFor(1) }},
		{"Sleep round trip", func() { s.RunFor(Microsecond) }},
		{"Signal->Wait", func() { q.Signal(); s.Run(s.Now()) }},
		{"Signal->WaitUntil, refused", func() { never.Signal(); s.Run(s.Now()) }},
	} {
		// Warm up as long as the count runs: a wait histogram grows its
		// span the first time it sees a longer wait, once.
		for range 200 {
			c.fn()
		}
		if a := allocs.Count(200, c.fn); a != 0 {
			t.Errorf("%s: %d objects over 200 runs, want 0", c.name, a)
		}
	}
	if woken < 200 || refused < 200 {
		t.Fatalf("waiter woke %d times, %d wake-ups refused: the Signal cases did not exercise the wake-up", woken, refused)
	}
}

// panicChildArg, as the test binary's first positional argument, turns the
// test that calls dieOfBoom into the process that is meant to die.
const panicChildArg = "sim-panic-child"

func boom() string { return fmt.Sprintf("boom-%d", 6*7) }

// dieOfBoom runs body — which must panic with boom() — in a child process,
// the test binary re-run on the calling test alone, and returns everything
// the child printed. The child must die of that value, whatever goroutine the
// panic started on.
func dieOfBoom(t *testing.T, body func()) string {
	if flag.Arg(0) == panicChildArg {
		body()
		fmt.Println("survived the panic")
		os.Exit(0)
	}
	out, err := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", panicChildArg).CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("child did not die: err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "panic: boom-42") || strings.Contains(string(out), "survived") {
		t.Fatalf("child did not die of the panic value:\n%s", out)
	}
	return string(out)
}

// TestCallbackPanicKillsProcess: a callback dispatched by a parking thread
// panics inside that thread's coroutine, under the recover that swallows
// killSentinel, and iter.Pull rethrows it in the caller of Run. The original
// value must come out the other side and kill the process, and the stack of
// the thread that was dispatching must be printed on the way.
func TestCallbackPanicKillsProcess(t *testing.T) {
	out := dieOfBoom(t, func() {
		s := New(1, 1)
		s.Go("dispatcher", CatOther, func(th *Thread) { th.Sleep(Second) })
		s.After(Microsecond, func() { panic(boom()) })
		s.Run(Time(Second))
	})
	if !strings.Contains(out, "sim.(*Scheduler).dispatch") {
		t.Fatalf("the dispatching thread's stack was not printed:\n%s", out)
	}
}

//go:noinline
func deepOne(th *Thread) { th.Sleep(Microsecond); deepTwo() }

//go:noinline
func deepTwo() { deepThree() }

//go:noinline
func deepThree() { panic(boom()) }

// TestBodyPanicKillsProcess is the twin for a panic in a thread's own body,
// three calls down: the process dies of the value and the print names the
// frame that threw it, which the stack of Run's caller cannot.
func TestBodyPanicKillsProcess(t *testing.T) {
	out := dieOfBoom(t, func() {
		s := New(1, 1)
		s.Go("bystander", CatOther, func(th *Thread) { th.Sleep(Second) })
		s.Go("thrower", CatOther, deepOne)
		s.Run(Time(Second))
	})
	if !strings.Contains(out, "thread thrower panicked") || !strings.Contains(out, "sim.deepThree") {
		t.Fatalf("the throwing thread's stack was not printed:\n%s", out)
	}
}

// TestBodyPanicSurfacesInRun: a body's panic comes out of Run, in Run's
// caller, as the value the body threw, so a caller that expects failures can
// recover it — and can then still shut the scheduler down.
func TestBodyPanicSurfacesInRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(1, 1)
	s.Go("bystander", CatOther, func(th *Thread) { th.Sleep(Second) })
	s.Go("thrower", CatOther, deepOne)
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(Time(Second))
		return nil
	}()
	if got != boom() {
		t.Fatalf("recovered %v around Run, want the body's %q", got, boom())
	}
	if s.Live() != 1 {
		t.Fatalf("live = %d after the panic, want the bystander only", s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 || runtime.NumGoroutine() != baseline {
		t.Fatalf("after Shutdown: live=%d goroutines=%d, want 0 and %d", s.Live(), runtime.NumGoroutine(), baseline)
	}
}

// TestSwitchesCountsCrossThreadResumes: Stats.Switches is one per event that
// resumed a thread other than the one that dispatched it. A thread yielding to
// itself, plain callbacks and wake-ups that WaitUntil's condition refuses cost
// none; two threads waking each other cost one per event.
func TestSwitchesCountsCrossThreadResumes(t *testing.T) {
	s := New(1, 1)
	defer s.Shutdown()
	yields := 0
	s.Go("yielder", CatOther, func(th *Thread) {
		for ; yields < 1000; yields++ {
			s.After(0, func() {})
			th.Yield()
		}
	})
	s.Run(Time(Second))
	if yields != 1000 || s.Events() != 2001 || s.Stats().Switches != 1 {
		t.Fatalf("yields=%d events=%d switches=%d, want 1000, 2001 and the one switch that started the thread",
			yields, s.Events(), s.Stats().Switches)
	}
	never := NewWaitQueue(s, "never")
	refused := 0
	s.Go("refused", CatOther, func(th *Thread) {
		never.WaitUntil(th, func() bool { refused++; return false })
	})
	s.Go("signaller", CatOther, func(th *Thread) {
		for i := 0; i < 1000; i++ {
			never.Signal()
			th.Yield()
		}
	})
	s.Run(Time(Second))
	if refused != 1000 || never.Waits != 1001 || s.Events() != 4003 || s.Stats().Switches != 3 {
		t.Fatalf("refused=%d waits=%d events=%d switches=%d, want 1000, 1001, 2002 more events and the two switches that started the threads",
			refused, never.Waits, s.Events(), s.Stats().Switches)
	}
	q := [2]*WaitQueue{NewWaitQueue(s, "ping"), NewWaitQueue(s, "pong")}
	for i := range q {
		s.Go("player", CatOther, func(th *Thread) {
			for {
				q[1-i].Signal()
				q[i].Wait(th)
			}
		})
	}
	s.HaltAtEvent(s.Events() + 100)
	s.Run(Time(2 * Second))
	if !s.Halted() || s.Stats().Switches != 103 {
		t.Fatalf("halted=%v switches=%d, want 100 more, one per event", s.Halted(), s.Stats().Switches)
	}
}
