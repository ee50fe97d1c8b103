package sim

import "testing"

// Package benchmarks for what one dispatched event costs the host, by who
// runs next: another thread, the caller of Drain, or the parking thread
// itself. `make benchsmoke` runs each once so they cannot rot; for numbers use
//
//	go test -run '^$' -bench . -benchmem -count 10 ./internal/sim

// runEvents dispatches exactly b.N events under the timer (the first one or
// two start the threads). The thread bodies that use it never let simulated
// time advance, so only the event budget ends the run.
func runEvents(b *testing.B, s *Scheduler) {
	b.ReportAllocs()
	b.ResetTimer()
	s.HaltAtEvent(s.Events() + uint64(b.N))
	s.RunFor(Second)
	b.StopTimer()
	s.HaltAtEvent(0)
	s.Shutdown()
}

// BenchmarkPingPong is one op = one cross-thread hand-off: two threads wake
// each other over a pair of WaitQueues, so every event resumes the thread that
// is not running — the case 97 % of a workload's events are.
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
	runEvents(b, s)
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
	runEvents(b, s)
}
