package wafl

import (
	"math/rand"
	"sort"
	"testing"

	"wafl/internal/obs"
)

// TestHistogramQuantileAccuracy is the log-linear histogram's precision
// contract: p50/p90/p99 are within one sub-bucket (1/16 relative error) of
// the exact order statistics, and Max is exact.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := obs.NewHistogram("lat")
	var samples []int64
	for i := 0; i < 20000; i++ {
		// Log-normal-ish latencies across ~5 octaves.
		v := int64(50_000) + rng.Int63n(1_000_000)
		if rng.Int63n(100) < 5 {
			v *= 20 // tail
		}
		h.Observe(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.50, 0.90, 0.99} {
		idx := int(q*float64(len(samples))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := samples[idx]
		got := h.Quantile(q)
		// Quantile reports the containing bucket's upper bound; the bucket
		// spans at most exact/16, so the error is one sub-bucket.
		if got < exact || float64(got-exact) > float64(exact)/16+1 {
			t.Errorf("q%.2f = %d, exact %d (error %.2f%%, budget 6.25%%)",
				q, got, exact, 100*float64(got-exact)/float64(exact))
		}
	}
	if h.Max != samples[len(samples)-1] {
		t.Errorf("Max = %d, want exact %d", h.Max, samples[len(samples)-1])
	}
	if h.Min != samples[0] {
		t.Errorf("Min = %d, want exact %d", h.Min, samples[0])
	}
}

// TestMeasureMembersMidCP checks window accounting on a live four-member
// cluster when the measurement boundary lands mid-CP: the cluster Results
// must be read off the cluster-wide deltas over the same window — Ops, CPs,
// the rate and FullStripe — every member's window must carry the one
// cluster-wide core usage, and
// its latency must be the window's ops exactly — count, sum, p50, p99 and
// p99.9 — as a reference histogram fed every op's returned latency records
// them. A small NVRAM log makes the writes stall, so the tail is ~9x p50.
// The window histogram's Max is not compared: it is recovered from the top
// bucket (obs.Histogram.Delta), exact only to that bucket, and so is any
// quantile whose rank falls in the top bucket (p99.9 of a window of fewer
// than 1,000 ops).
func TestMeasureMembersMidCP(t *testing.T) {
	cfg := clusterConfig(4)
	cfg.NVRAMHalfBytes = 256 << 10
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	ref, measuring := obs.NewHistogram("ref"), false
	inos := make([]uint64, sys.TotalVolumes())
	for v := range inos {
		inos[v] = sys.CreateFileDirect(v, 1<<13)
	}
	for k := 0; k < 3*len(inos); k++ {
		v := k % len(inos)
		sys.ClientThread("load", func(c *ClientCtx) {
			for i := 0; c.Alive(); i++ {
				if lat := c.Write(v, inos[v], FBN((i*8)%4096), 1+(i+k)%8); measuring {
					ref.Observe(int64(lat))
				}
			}
		})
	}
	// Warm up, then force CPs so the window almost certainly opens and
	// closes with a CP in flight on at least one member.
	sys.Run(20 * Millisecond)
	sys.ForceCP()
	sys.Run(100 * Microsecond)

	before := sys.Stats()
	measuring = true
	m, parts := sys.MeasureMembers(0, 50*Millisecond)
	want := sys.Stats().Sub(before)

	if m.CPs != want.CPCount {
		t.Fatalf("cluster CPs = %d, cluster delta %d", m.CPs, want.CPCount)
	}
	if m.Ops != want.Client.Ops {
		t.Fatalf("cluster Ops = %d, cluster delta %d", m.Ops, want.Client.Ops)
	}
	if m.Ops == 0 {
		t.Fatal("window saw no ops")
	}
	if rate := float64(m.Ops) / m.Window.Seconds(); m.OpsPerSec != rate {
		t.Fatalf("cluster OpsPerSec = %v, want %v", m.OpsPerSec, rate)
	}
	full, partial := want.RAID.FullStripeWrites, want.RAID.PartialStripeWrites
	if frac := float64(full) / float64(full+partial); m.FullStripe != frac {
		t.Fatalf("cluster FullStripe = %v, want the cluster's %d of %d stripes written full", m.FullStripe, full, full+partial)
	}
	var sumOps uint64
	for _, p := range parts {
		sumOps += p.Ops
		if p.Window != 50*Millisecond || p.Cores != m.Cores {
			t.Fatalf("part window %v cores %+v, want 50ms and the cluster's %+v", p.Window, p.Cores, m.Cores)
		}
	}
	if sumOps != m.Ops {
		t.Fatalf("part sum %d != cluster %d", sumOps, m.Ops)
	}
	lat := m.Stats.Lat
	if lat.Count != ref.Count || lat.Sum != ref.Sum {
		t.Fatalf("cluster latency n=%d sum=%d, reference n=%d sum=%d", lat.Count, lat.Sum, ref.Count, ref.Sum)
	}
	for _, q := range []struct {
		name     string
		got      Duration
		quantile float64
	}{{"p50", m.LatP50, 0.50}, {"p99", m.LatP99, 0.99}, {"p99.9", m.LatP999, 0.999}} {
		if want := Duration(ref.Quantile(q.quantile)); q.got != want {
			t.Errorf("cluster %s = %v, reference %v", q.name, q.got, want)
		}
	}
}

// TestMeasureMembersIsAStatsWindow: a measurement is a Stats window and
// nothing else. Of two identical two-member systems, one is measured with
// MeasureMembers and the other bracketed by hand — Run, Stats, Run, Stats,
// Sub — and the hand window's Sched.Busy over its length is Results.Cores
// exactly, field by field, its Sched.Switches the measured window's, and
// every member's NVRAM gauge at the window's end its log's fill.
func TestMeasureMembersIsAStatsWindow(t *testing.T) {
	const warmup, window = 10 * Millisecond, 20 * Millisecond
	cfg := clusterConfig(2)
	cfg.NVRAMHalfBytes = 256 << 10
	build := func() *System {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < sys.TotalVolumes(); v++ {
			ino := sys.CreateFileDirect(v, 1<<12)
			sys.ClientThread("load", func(c *ClientCtx) {
				for i := 0; c.Alive(); i++ {
					c.Write(v, ino, FBN((i*8)%4096), 8)
				}
			})
		}
		return sys
	}
	measured, hand := build(), build()
	defer measured.Shutdown()
	defer hand.Shutdown()

	res, parts := measured.MeasureMembers(warmup, window)
	hand.Run(warmup)
	before := hand.Stats()
	hand.Run(window)
	st := hand.Stats().Sub(before)

	b, w := st.Sched.Busy, float64(window)
	for _, c := range []struct {
		name  string
		cores float64
		busy  Duration
	}{
		{"Client", res.Cores.Client, b.Client}, {"Waffinity", res.Cores.Waffinity, b.Waffinity},
		{"Cleaner", res.Cores.Cleaner, b.Cleaner}, {"Infra", res.Cores.Infra, b.Infra},
		{"CP", res.Cores.CP, b.CP}, {"RAID", res.Cores.RAID, b.RAID}, {"Other", res.Cores.Other, b.Other},
	} {
		if c.cores != float64(c.busy)/w {
			t.Errorf("Cores.%s = %v, want the hand window's %v busy over %v", c.name, c.cores, c.busy, window)
		}
	}
	if res.Cores.Client == 0 || res.Cores.Cleaner == 0 {
		t.Fatalf("no client or cleaner time in the window: %+v", res.Cores)
	}
	if got, want := res.Stats.Sched.Switches, st.Sched.Switches; got != want || got == 0 {
		t.Fatalf("measured window switched %d times, the hand window %d", got, want)
	}
	filled := false
	for i, m := range measured.members {
		if parts[i].Cores != res.Cores {
			t.Fatalf("member %d cores %+v, want the cluster's %+v", i, parts[i].Cores, res.Cores)
		}
		n := parts[i].Stats.NVLogBytes
		if got := float64(n) / float64(cfg.NVRAMHalfBytes); got != m.log.Fullness() {
			t.Fatalf("member %d NVRAM gauge %d bytes = %v full, log says %v", i, n, got, m.log.Fullness())
		}
		filled = filled || n > 0
	}
	if !filled {
		t.Fatal("no member's NVRAM log holds a record at the window's end")
	}
}
