package wafl

import (
	"fmt"
	"strings"

	"wafl/internal/sim"
)

// CoreUsage is per-component average simulated core occupancy over a
// measurement window — the metric the paper's Figures 4-7 plot alongside
// throughput ("2.35 infrastructure + 3.88 cleaner cores").
type CoreUsage struct {
	Client    float64
	Waffinity float64
	Cleaner   float64
	Infra     float64
	CP        float64
	RAID      float64
	Other     float64
}

// Total returns the sum across components.
func (c CoreUsage) Total() float64 {
	return c.Client + c.Waffinity + c.Cleaner + c.Infra + c.CP + c.RAID + c.Other
}

// WriteAllocation returns the cores doing write-allocation work: cleaner
// threads plus infrastructure (the paper's "write allocation core usage").
func (c CoreUsage) WriteAllocation() float64 { return c.Cleaner + c.Infra }

// Results summarizes one measurement window. Every field is read off the
// window's Stats, its length and the cluster-wide core usage (windowResults),
// so a cluster measurement is its members' window Stats folded and read the
// same way: op, block, CP and stall totals are exact sums, FullStripe is the
// fraction of the cluster's stripes written full, and latency statistics come
// from the merged histogram. Latency percentiles come from a log-linear
// histogram (16 sub-buckets per octave), so they are exact to within one
// bucket — and the window's memory cost is O(1) regardless of how many
// operations it covers.
type Results struct {
	Window     Duration
	Ops        uint64
	Blocks     uint64
	OpsPerSec  float64
	MBPerSec   float64
	LatAvg     Duration
	LatP50     Duration
	LatP90     Duration
	LatP99     Duration
	LatP999    Duration // p99.9 — the overload-study tail metric
	LatMax     Duration
	Cores      CoreUsage // cluster-wide: the CPU pool is shared
	CPs        uint64
	Stalls     uint64
	StallTime  Duration
	FullStripe float64 // fraction of stripes written full (no parity reads)
	Cleaners   int     // active cleaner threads at window end

	// Stats is every layer's counters over the window (gauges and high-water
	// marks at its end): the fields above are read off it, and any other
	// delta a caller wants is here too. Stats.Lat is the window's latency
	// histogram; nil on a zero Results.
	Stats Stats
}

// String renders the results as a compact report.
func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window=%v ops=%d (%.0f ops/s, %.1f MB/s) ", r.Window, r.Ops, r.OpsPerSec, r.MBPerSec)
	fmt.Fprintf(&b, "lat avg=%v p50=%v p99=%v ", r.LatAvg, r.LatP50, r.LatP99)
	fmt.Fprintf(&b, "cores total=%.2f (client=%.2f cleaner=%.2f infra=%.2f cp=%.2f raid=%.2f waff=%.2f) ",
		r.Cores.Total(), r.Cores.Client, r.Cores.Cleaner, r.Cores.Infra, r.Cores.CP, r.Cores.RAID, r.Cores.Waffinity)
	fmt.Fprintf(&b, "cps=%d stalls=%d fullstripe=%.0f%%", r.CPs, r.Stalls, r.FullStripe*100)
	return b.String()
}

// Measure runs the simulation for warmup, then for window, and returns the
// cluster-wide metrics over the window.
func (sys *System) Measure(warmup, window Duration) Results {
	r, _ := sys.MeasureMembers(warmup, window)
	return r
}

// MeasureMembers runs the simulation for warmup, then for window, and
// returns the cluster-wide metrics over the window and one Results per
// member. The cluster value is read off the fold of the members' window
// Stats. Core usage is measured once, cluster-wide (the CPU pool is shared;
// per-member attribution is not available), and every value carries it.
func (sys *System) MeasureMembers(warmup, window Duration) (Results, []Results) {
	sys.Run(warmup)
	start := make([]Stats, len(sys.members))
	for i, m := range sys.members {
		start[i] = m.stats()
	}
	t0, cpu0 := sys.s.Now(), sys.s.CPU()
	sys.Run(window)
	cpu := sys.s.CPU()
	cores := CoreUsage{
		Client:    cpu.Cores(cpu0, sim.CatClient),
		Waffinity: cpu.Cores(cpu0, sim.CatWaffinity),
		Cleaner:   cpu.Cores(cpu0, sim.CatCleaner),
		Infra:     cpu.Cores(cpu0, sim.CatInfra),
		CP:        cpu.Cores(cpu0, sim.CatCP),
		RAID:      cpu.Cores(cpu0, sim.CatRAID),
		Other:     cpu.Cores(cpu0, sim.CatOther),
	}
	win := Duration(sys.s.Now() - t0)
	var cluster Stats
	parts := make([]Results, len(sys.members))
	for i, m := range sys.members {
		st := m.stats().Sub(start[i])
		foldInto(opAdd, &cluster, st)
		parts[i] = windowResults(st, win, cores)
	}
	return windowResults(cluster, win, cores), parts
}

// windowResults fills every Results field from the window's Stats, its
// length and the cluster-wide core usage. It is the one place a Results
// field is computed.
func windowResults(st Stats, window Duration, cores CoreUsage) Results {
	r := Results{
		Window:    window,
		Ops:       st.Client.Ops,
		Blocks:    st.Client.BlocksWritten,
		CPs:       st.CPCount,
		Stalls:    st.Client.Stalls,
		StallTime: st.Client.StallTime,
		Cores:     cores,
		Cleaners:  st.Cleaners,
		Stats:     st,
	}
	if n := st.RAID.FullStripeWrites + st.RAID.PartialStripeWrites; n > 0 {
		r.FullStripe = float64(st.RAID.FullStripeWrites) / float64(n)
	}
	r.derive()
	return r
}

// derive fills in what follows from the window's totals and histogram: the
// rates and the latency statistics.
func (r *Results) derive() {
	if secs := r.Window.Seconds(); secs > 0 {
		r.OpsPerSec = float64(r.Ops) / secs
		r.MBPerSec = float64(r.Blocks) * 4096 / (1 << 20) / secs
	}
	if lat := r.Stats.Lat; lat != nil && lat.Count > 0 {
		r.LatAvg = Duration(lat.Mean())
		r.LatP50 = Duration(lat.Quantile(0.50))
		r.LatP90 = Duration(lat.Quantile(0.90))
		r.LatP99 = Duration(lat.Quantile(0.99))
		r.LatP999 = Duration(lat.Quantile(0.999))
		r.LatMax = Duration(lat.Max)
	}
}

// CloneStats is the point-in-time block debt the clone fleet still owes its
// parents; the cumulative clone and restore counters are in Stats.CP.
type CloneStats struct {
	CloneHeld    uint64 // live base blocks still shared with parents
	SplitPending uint64 // of CloneHeld, blocks a running split has left
	Bound        int    // clone volumes currently bound
	Splitting    int    // of Bound, clones with a split in flight
}

// CloneStats walks the bound clone volumes for their live summary-hold debt.
func (sys *System) CloneStats() CloneStats {
	var cs CloneStats
	for _, cv := range sys.CloneVolumes() {
		fs := sys.FreeSpaceBreakdown(cv)
		cs.CloneHeld += fs.CloneHeld
		cs.SplitPending += fs.SplitPending
		cs.Bound++
		if fs.SplitPending > 0 {
			cs.Splitting++
		}
	}
	return cs
}
