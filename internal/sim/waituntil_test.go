package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wafl/internal/obs"
)

// wakeScript is one scripted run over a WaitQueue with three waiters, each
// behind its own gate, and two drivers that take turns at the script's steps:
// Signals and Broadcasts, straight and from After callbacks (zero-delay and
// timed), with the gates opening and closing in between. The waiters wait
// either with WaitUntil or with the loop it is defined as.
type wakeScript struct {
	s       *Scheduler
	q       *WaitQueue
	log     []string
	refused int
}

func (w *wakeScript) note(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d %d ", w.s.Now(), w.s.Events())+fmt.Sprintf(format, args...))
}

func runWakeScript(literal bool) *wakeScript {
	s := New(1, 1) // one core: a driver's burst queues behind the other's
	s.SetTracer(obs.New(obs.Options{}))
	w := &wakeScript{s: s, q: NewWaitQueue(s, "gate")}
	q := w.q
	var open [3]bool
	gates := func(a, b, c bool) { open = [3]bool{a, b, c} }
	for i := range open {
		name := fmt.Sprintf("w%d", i)
		ready := func() bool {
			w.note("%s ready=%v", name, open[i])
			if !open[i] {
				w.refused++
			}
			return open[i]
		}
		s.Go(name, CatClient, func(th *Thread) {
			for {
				if literal {
					for {
						q.Wait(th)
						if ready() {
							break
						}
					}
				} else {
					q.WaitUntil(th, ready)
				}
				w.note("%s admitted", name)
			}
		})
	}
	script := []func(){
		func() { q.Signal() },    // every gate shut
		func() { q.Broadcast() }, // three refusals in one instant
		func() { gates(false, true, false); q.Broadcast() },
		func() { s.After(0, func() { q.Signal() }) },
		func() { s.After(Microsecond, func() { q.Broadcast() }) }, // fires between steps, under a driver's burst
		func() { gates(true, true, true); q.Signal(); q.Signal() },
		func() { gates(false, false, false); q.Broadcast() },
		func() { q.Signal(); s.After(0, func() { gates(true, false, false); q.Broadcast() }) },
		func() { q.Signal() }, // w0 is open, but at the back
		func() { q.Signal(); q.Signal(); q.Signal() },
		func() { gates(false, false, true); s.After(0, func() { q.Signal() }); q.Broadcast() },
		func() { gates(true, true, true); q.Broadcast() }, // all three admitted at once
		func() { gates(false, false, false) },
		func() { q.Broadcast(); q.Broadcast() }, // the second finds nobody
	}
	for d := 0; d < 2; d++ {
		name := fmt.Sprintf("driver%d", d)
		s.Go(name, CatOther, func(th *Thread) {
			th.Sleep(Duration(d+1) * Microsecond)
			for i := d; i < len(script); i += 2 {
				w.note("%s step %d waiting=%d", name, i, q.Len())
				script[i]()
				th.Consume(1500 * Nanosecond) // overlaps the other driver's: bursts end between steps
				th.Sleep(500 * Nanosecond)
			}
		})
	}
	s.Run(Time(Millisecond))
	return w
}

// TestWaitUntilIsTheLoop: WaitUntil and the loop in its doc comment are the
// same program to everything but Switches — the order things happen in, the
// event count at each, the queue's counters, the clock, the trace and its
// histograms.
func TestWaitUntilIsTheLoop(t *testing.T) {
	lit, got := runWakeScript(true), runWakeScript(false)
	defer lit.s.Shutdown()
	defer got.s.Shutdown()
	if a, b := strings.Join(lit.log, "\n"), strings.Join(got.log, "\n"); a != b {
		t.Fatalf("logs differ:\nloop:\n%s\nWaitUntil:\n%s", a, b)
	}
	type totals struct {
		events, waits, signals uint64
		now                    Time
		live, waiting, refused int
	}
	sum := func(w *wakeScript) totals {
		return totals{w.s.Events(), w.q.Waits, w.q.Signals, w.s.Now(), w.s.Live(), w.q.Len(), w.refused}
	}
	if a, b := sum(lit), sum(got); a != b || a.refused < 10 || a.live != 3 || a.waiting != 3 {
		t.Fatalf("loop %+v, WaitUntil %+v: want them equal, 10 or more refusals, the three waiters parked", a, b)
	}
	if a, b := lit.s.Tracer().Events(), got.s.Tracer().Events(); !reflect.DeepEqual(a, b) || len(a) == 0 {
		t.Fatalf("trace streams differ: %d events from the loop, %d from WaitUntil", len(a), len(b))
	}
	// Every wake-up ends one wait: the three still parked have not ended theirs.
	if a, b := lit.s.Stats(), got.s.Stats(); !reflect.DeepEqual(a, b) || a.WaitQueueWait.Count != lit.q.Waits-3 {
		t.Fatalf("histograms differ, or the waits ended are not the queue's waits but the three parked:\nloop: %v %v %v\nWaitUntil: %v %v %v\nWaits %d",
			a.RunQueueWait, a.MutexWait, a.WaitQueueWait, b.RunQueueWait, b.MutexWait, b.WaitQueueWait, lit.q.Waits)
	}
	// In this script every refused wake-up is dispatched by a thread other than
	// the one it names, and the next thread to run is a third: the loop pays
	// one switch for each. (Elsewhere it is zero, when a waiter dispatches its
	// own wake-up, to two, when the thread that signalled runs next.)
	if saved := lit.s.Switches() - got.s.Switches(); saved != uint64(lit.refused) {
		t.Fatalf("switches: loop %d, WaitUntil %d, %d refusals; want the difference to be the refusals",
			lit.s.Switches(), got.s.Switches(), lit.refused)
	}
}

// TestReadyPanicSurfacesInRun: ready runs where an After callback would, so
// its panic reaches the caller of Run with the value it threw, whether the
// wake-up was dispatched by a parking thread or by Run itself.
func TestReadyPanicSurfacesInRun(t *testing.T) {
	for _, fromThread := range []bool{true, false} {
		s := New(1, 1)
		q := NewWaitQueue(s, "q")
		s.Go("waiter", CatOther, func(th *Thread) {
			q.WaitUntil(th, func() bool { panic(boom()) })
			t.Error("waiter resumed")
		})
		if fromThread {
			s.Go("signaller", CatOther, func(th *Thread) {
				q.Signal()
				th.Sleep(Second)
			})
		} else {
			s.Run(0)
			q.Signal()
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			s.Run(Time(Second))
			return nil
		}()
		if got != boom() {
			t.Fatalf("fromThread=%v: recovered %v around Run, want ready's %q", fromThread, got, boom())
		}
		s.Shutdown()
		if s.Live() != 0 {
			t.Fatalf("fromThread=%v: live = %d after Shutdown", fromThread, s.Live())
		}
	}
}
