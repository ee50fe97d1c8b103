package wafl

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"wafl/internal/obs"
)

// synthPart builds one synthetic per-member window Results with a real
// latency histogram, the way MeasureMembers would.
func synthPart(rng *rand.Rand, window Duration, cores CoreUsage) (Results, []int64) {
	n := int(rng.Int63n(400))
	lat := obs.NewHistogram("client.lat")
	samples := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		// Spread over several octaves like real op latencies (us..tens of ms).
		v := int64(1000) << uint(rng.Int63n(14))
		v += rng.Int63n(v)
		lat.Observe(v)
		samples = append(samples, v)
	}
	r := Results{
		Window:     window,
		Ops:        uint64(n),
		Blocks:     uint64(rng.Int63n(5000)),
		CPs:        uint64(rng.Int63n(10)),
		Stalls:     uint64(rng.Int63n(20)),
		StallTime:  Duration(rng.Int63n(int64(Millisecond))),
		Cores:      cores,
		FullStripe: rng.Float64(),
		Cleaners:   int(rng.Int63n(8)),
		Stats:      Stats{Lat: lat},
	}
	if lat.Count > 0 {
		r.LatAvg = Duration(lat.Mean())
		r.LatP50 = Duration(lat.Quantile(0.50))
		r.LatP99 = Duration(lat.Quantile(0.99))
		r.LatMax = Duration(lat.Max)
	}
	return r, samples
}

// TestMergeResultsProperties checks MergeResults' documented contract over
// many randomized part sets: counter totals are exact sums, Window is the
// widest part, rates are recomputed from the merged totals, core usage is
// the Ops-weighted average, FullStripe is Blocks-weighted, and the merged
// latency distribution is bucket-exact (identical to one histogram fed
// every sample).
func TestMergeResultsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nParts := 1 + int(rng.Int63n(6))
		parts := make([]Results, nParts)
		var all []int64
		var wantOps, wantBlocks, wantCPs, wantStalls uint64
		var wantStallT, wantWindow Duration
		wantCleaners := 0
		var opsW, coreSum, stripeW, fullSum float64
		for i := range parts {
			window := Duration(1+rng.Int63n(3)) * 100 * Millisecond
			cores := CoreUsage{
				Client:  rng.Float64() * 4,
				Cleaner: rng.Float64() * 4,
				Infra:   rng.Float64() * 2,
			}
			p, samples := synthPart(rng, window, cores)
			parts[i] = p
			all = append(all, samples...)
			wantOps += p.Ops
			wantBlocks += p.Blocks
			wantCPs += p.CPs
			wantStalls += p.Stalls
			wantStallT += p.StallTime
			wantCleaners += p.Cleaners
			if window > wantWindow {
				wantWindow = window
			}
			opsW += float64(p.Ops)
			coreSum += float64(p.Ops) * p.Cores.Cleaner
			stripeW += float64(p.Blocks)
			fullSum += float64(p.Blocks) * p.FullStripe
		}
		m := MergeResults(parts)

		if m.Ops != wantOps || m.Blocks != wantBlocks || m.CPs != wantCPs ||
			m.Stalls != wantStalls || m.StallTime != wantStallT || m.Cleaners != wantCleaners {
			t.Fatalf("trial %d: totals not exact: got %+v", trial, m)
		}
		if m.Window != wantWindow {
			t.Fatalf("trial %d: Window = %v, want max %v", trial, m.Window, wantWindow)
		}
		if wantWindow > 0 {
			wantRate := float64(wantOps) / wantWindow.Seconds()
			if math.Abs(m.OpsPerSec-wantRate) > 1e-9*math.Max(1, wantRate) {
				t.Fatalf("trial %d: OpsPerSec = %v, want %v", trial, m.OpsPerSec, wantRate)
			}
		}
		if opsW > 0 {
			want := coreSum / opsW
			if math.Abs(m.Cores.Cleaner-want) > 1e-9 {
				t.Fatalf("trial %d: Cores.Cleaner = %v, want ops-weighted %v", trial, m.Cores.Cleaner, want)
			}
		}
		if stripeW > 0 {
			want := fullSum / stripeW
			if math.Abs(m.FullStripe-want) > 1e-9 {
				t.Fatalf("trial %d: FullStripe = %v, want blocks-weighted %v", trial, m.FullStripe, want)
			}
		}

		// Merged latency must equal a single histogram over all samples:
		// Merge adds buckets exactly, so quantiles agree bucket-for-bucket.
		ref := obs.NewHistogram("ref")
		for _, v := range all {
			ref.Observe(v)
		}
		for _, q := range []float64{0.50, 0.90, 0.99} {
			if got, want := m.Stats.Lat.Quantile(q), ref.Quantile(q); got != want {
				t.Fatalf("trial %d: merged q%.2f = %d, reference %d", trial, q, got, want)
			}
		}
		if len(all) > 0 && (Duration(ref.Max) != m.LatMax || Duration(ref.Mean()) != m.LatAvg) {
			t.Fatalf("trial %d: merged max/avg %v/%v, reference %v/%v",
				trial, m.LatMax, m.LatAvg, Duration(ref.Max), Duration(ref.Mean()))
		}
	}
}

// TestMergeResultsEmptyWindows covers the degenerate cases: no parts merge
// to the zero Results; all-idle parts fall back to the unweighted core
// average; an empty part contributes no weight next to a busy one.
func TestMergeResultsEmptyWindows(t *testing.T) {
	if r := MergeResults(nil); r.Ops != 0 || r.Window != 0 || r.Cores.Total() != 0 {
		t.Fatalf("empty merge not zero: %+v", r)
	}

	idleA := Results{Window: Second, Cores: CoreUsage{Client: 2}}
	idleB := Results{Window: Second, Cores: CoreUsage{Client: 4}}
	r := MergeResults([]Results{idleA, idleB})
	if math.Abs(r.Cores.Client-3) > 1e-9 {
		t.Fatalf("idle cluster cores = %v, want unweighted average 3", r.Cores.Client)
	}
	if r.LatAvg != 0 || r.LatP99 != 0 {
		t.Fatalf("idle cluster reports latency: %+v", r)
	}

	busyLat := obs.NewHistogram("client.lat")
	busyLat.Observe(int64(5 * Millisecond))
	busy := Results{Window: Second, Ops: 1, Cores: CoreUsage{Client: 6}, Stats: Stats{Lat: busyLat}}
	r = MergeResults([]Results{idleA, busy})
	if math.Abs(r.Cores.Client-6) > 1e-9 {
		t.Fatalf("empty window carried weight: cores = %v, want 6", r.Cores.Client)
	}
	if r.Ops != 1 || r.LatMax != 5*Millisecond {
		t.Fatalf("busy part lost in merge: %+v", r)
	}
}

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

// TestMeasureMembersMidCP checks window accounting on a live two-member
// cluster when the measurement boundary lands mid-CP: per-member windows
// from MeasureMembers must merge to exactly the cluster-wide deltas over
// the same window, CPs included.
func TestMeasureMembersMidCP(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	inos := make([]uint64, sys.TotalVolumes())
	for v := range inos {
		inos[v] = sys.CreateFileDirect(v, 1<<13)
	}
	for v := range inos {
		v := v
		sys.ClientThread("load", func(c *ClientCtx) {
			for i := 0; c.Alive(); i++ {
				c.Write(v, inos[v], FBN((i*4)%4096), 4)
			}
		})
	}
	// Warm up, then force CPs so the window almost certainly opens and
	// closes with a CP in flight on at least one member.
	sys.Run(20 * Millisecond)
	sys.ForceCP()
	sys.Run(100 * Microsecond)

	cp0 := sys.CPCount()
	var ops0 uint64
	for i := 0; i < sys.Members(); i++ {
		ops0 += sys.MemberStats(i).Client.Ops
	}
	parts := sys.MeasureMembers(0, 50*Millisecond)
	cp1 := sys.CPCount()
	var ops1 uint64
	for i := 0; i < sys.Members(); i++ {
		ops1 += sys.MemberStats(i).Client.Ops
	}

	m := MergeResults(parts)
	if m.CPs != cp1-cp0 {
		t.Fatalf("merged CPs = %d, cluster delta %d", m.CPs, cp1-cp0)
	}
	if m.Ops != ops1-ops0 {
		t.Fatalf("merged Ops = %d, cluster delta %d", m.Ops, ops1-ops0)
	}
	if m.Ops == 0 {
		t.Fatal("window saw no ops")
	}
	var sumOps uint64
	for _, p := range parts {
		sumOps += p.Ops
		if p.Window != 50*Millisecond {
			t.Fatalf("part window = %v, want 50ms", p.Window)
		}
	}
	if sumOps != m.Ops {
		t.Fatalf("part sum %d != merged %d", sumOps, m.Ops)
	}
}
