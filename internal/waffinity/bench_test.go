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
