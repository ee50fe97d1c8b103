package sim

import "testing"

// Package benchmarks for what one dispatched event costs the host, by who
// runs next: another thread, the caller of Drain, the parking thread itself,
// or nobody (a wake-up WaitUntil's condition refuses). `make benchsmoke` runs
// each once so they cannot rot; for numbers use
//
//	go test -run '^$' -bench . -benchmem -count 10 ./internal/sim

// runEvents dispatches exactly perOp*b.N events under the timer (the first few
// start the threads). The thread bodies that use it never let simulated
// time advance, so only the event budget ends the run.
func runEvents(b *testing.B, s *Scheduler, perOp int) {
	b.ReportAllocs()
	b.ResetTimer()
	s.HaltAtEvent(s.Events() + uint64(perOp*b.N))
	s.RunFor(Second)
	b.StopTimer()
	s.HaltAtEvent(0)
	s.Shutdown()
}

// BenchmarkPingPong is one op = one cross-thread hand-off: two threads wake
// each other over a pair of WaitQueues, so every event resumes the thread that
// is not running — the case of 26 % of a workload's events on agedrand, 27 %
// on nfsmix, 39 % on overload_burst and 42 % on seqwrite (Stats.Switches over
// the events of each bench configuration's window: 150 ms warm-up then
// 250 ms, overload_burst's 300 ms from cold), and of 97 % before idle
// Waffinity workers waited with WaitUntil.
func BenchmarkPingPong(b *testing.B) {
	s := New(2, 1)
	q := [2]*WaitQueue{NewWaitQueue(s, "ping"), NewWaitQueue(s, "pong")}
	for i := range q {
		s.Go("player", CatOther, func(th *Thread) {
			for {
				q[1-i].Signal()
				q[i].Wait(th)
			}
		})
	}
	runEvents(b, s, 1)
}

// BenchmarkDrainRoundTrip is one op = main -> worker -> main: Signal from
// outside the simulation, Drain until the worker has parked again. The shape
// of bench's waffinity.send_ns kernel without the Waffinity queue.
func BenchmarkDrainRoundTrip(b *testing.B) {
	s := New(2, 1)
	q := NewWaitQueue(s, "work")
	s.Go("worker", CatOther, func(th *Thread) {
		for {
			q.Wait(th)
		}
	})
	s.Run(s.Now())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Signal()
		s.Drain(s.Now())
	}
	b.StopTimer()
	s.Shutdown()
}

// BenchmarkYieldSelf is one op = one event that resumes the thread that
// parked: the dispatch loop's fast path, which switches nothing (bench's
// sim.switch_ns kernel).
func BenchmarkYieldSelf(b *testing.B) {
	s := New(2, 1)
	s.Go("yielder", CatOther, func(th *Thread) {
		for {
			th.Yield()
		}
	})
	runEvents(b, s, 1)
}

// BenchmarkRefusedWake is one op = one Signal to a waiter whose condition says
// no, plus the signaller's own Yield (two events): with WaitUntil the
// dispatcher asks the condition and switches into nobody; written as the loop
// WaitUntil is defined as, the waiter is switched into to ask it, and the
// signaller back. The first is what most of a workload's events are (53 % on
// overload_burst to 71 % on agedrand: idle Waffinity workers woken behind a
// running affinity); the second is what each cost before.
func BenchmarkRefusedWake(b *testing.B) {
	for _, c := range []struct {
		name string
		wait func(q *WaitQueue, th *Thread, ready func() bool)
	}{
		{"WaitUntil", (*WaitQueue).WaitUntil},
		{"Loop", func(q *WaitQueue, th *Thread, ready func() bool) {
			for {
				q.Wait(th)
				if ready() {
					return
				}
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New(2, 1)
			q := NewWaitQueue(s, "never")
			s.Go("waiter", CatOther, func(th *Thread) { c.wait(q, th, func() bool { return false }) })
			s.Go("signaller", CatOther, func(th *Thread) {
				for {
					q.Signal()
					th.Yield()
				}
			})
			runEvents(b, s, 2)
		})
	}
}
