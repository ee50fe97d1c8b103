package waffinity

import (
	"testing"

	"wafl/internal/sim"
)

// BenchmarkSendBehindBlockedAffinity is one op = one Send to an affinity whose
// running message sleeps, with every other worker idle, and the Drain that
// dispatches the wake-up it causes: the worker's condition scans the one
// pending affinity, finds it excluded and the wake-up is refused, all on the
// caller (no switch). A read miss on nfsmix puts ~18 of these behind every
// client op. `make benchsmoke` runs it once; for numbers use
//
//	go test -run '^$' -bench . -benchmem -count 10 ./internal/waffinity
func BenchmarkSendBehindBlockedAffinity(b *testing.B) {
	s := sim.New(4, 1)
	w := New(s, 4, 0)
	stripe := w.AddChild(w.Root(), KindStripe, "stripe")
	w.Send(stripe, sim.CatClient, func(th *sim.Thread) { th.Sleep(1 << 60) }, nil)
	s.Run(s.Now())
	nop := func(*sim.Thread) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Send(stripe, sim.CatClient, nop, nil)
		s.Drain(s.Now())
	}
	b.StopTimer()
	if st := w.Stats(); st.EmptyWakes != uint64(b.N) || st.Executed != 0 {
		b.Fatalf("%+v: want one empty wake per Send and nothing executed", st)
	}
	s.Shutdown()
}

// BenchmarkCallRoundTrip is one op = one Call from a simulated thread, the
// way every client op reaches its affinity: Send takes a recycled message, a
// worker runs it and its completion wakes the caller, which returns the call
// record. Both records come back from their free lists, so allocs/op is 0.
func BenchmarkCallRoundTrip(b *testing.B) {
	s := sim.New(2, 1)
	w := New(s, 2, 0)
	stripe := w.AddChild(w.Root(), KindStripe, "stripe")
	nop := func(*sim.Thread) {}
	done := false
	s.Go("caller", sim.CatClient, func(th *sim.Thread) {
		w.Call(th, stripe, sim.CatClient, nop)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Call(th, stripe, sim.CatClient, nop)
		}
		b.StopTimer()
		done = true
	})
	s.Run(sim.Time(sim.Second)) // every Call completes at instant 0
	if !done || w.Stats().Executed != uint64(b.N)+1 {
		b.Fatalf("caller done %v after %d messages, want %d", done, w.Stats().Executed, b.N+1)
	}
	s.Shutdown()
}
