package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// OverloadPoint is one mode's outcome in the open-loop overload study: the
// per-class sojourn tail (queue wait included), admission-control activity,
// and the NVLog stall attribution that explains the tail.
type OverloadPoint struct {
	Mode string // "admission-off" | "admission-on"

	// Sojourn (arrival -> completion) quantiles over the measurement
	// window, per QoS class.
	LSP50, LSP99, LSP999 wafl.Duration
	BulkP999             wafl.Duration

	// Attribution: why the tail is what it is.
	Shed                     uint64        // bulk writes refused by admission in the window
	Stalls                   uint64        // NVLog-full write stalls (hit every class)
	StallTime                wafl.Duration // total time writers sat in those stalls
	AdmitDelay               wafl.Duration // total admission backpressure applied to bulk
	CPs                      uint64
	BCacheHits, BCacheMisses uint64
}

// OverloadConfig returns the study's system config: the default box with a
// small NVRAM log (so the burst phase actually pressures it), the buffer
// cache enabled at well under the streams' working set (reads mix cache
// hits with timed media reads, as in CAWL's capacity regimes), and
// admission control parameters tuned for the burst.
func OverloadConfig(base wafl.Config) wafl.Config {
	cfg := base
	cfg.NVRAMHalfBytes = 1 << 20 // 1 MiB halves: burst writes cross watermarks
	cfg.BCacheBlocks = 8192      // working set is 2000 streams x 64 blocks = 128k
	cfg.Admission = wafl.DefaultAdmission()
	cfg.Admission.Enabled = false // each mode sets this explicitly
	return cfg
}

// runOverload measures one admission mode and returns its point.
func runOverload(cfg wafl.Config, warmup, window wafl.Duration, mode string) (OverloadPoint, error) {
	w := workload.DefaultOpenLoop() // the same burst shape for both modes
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		return OverloadPoint{}, err
	}
	w.Attach(sys)
	sys.Run(warmup)

	// Window baselines for what the workload itself keeps: its histograms
	// and shed count accumulate from t=0, so snapshot at the window edge and
	// diff. The system's own deltas come with the Results.
	ls0, bulk0 := w.LSLat.Clone(), w.BulkLat.Clone()
	shed0 := w.Shed
	res := sys.Measure(0, window)
	ls := w.LSLat.Delta(ls0)
	bulk := w.BulkLat.Delta(bulk0)
	p := OverloadPoint{
		Mode:         mode,
		LSP50:        wafl.Duration(ls.Quantile(0.50)),
		LSP99:        wafl.Duration(ls.Quantile(0.99)),
		LSP999:       wafl.Duration(ls.Quantile(0.999)),
		BulkP999:     wafl.Duration(bulk.Quantile(0.999)),
		Shed:         w.Shed - shed0,
		Stalls:       res.Stalls,
		StallTime:    res.StallTime,
		AdmitDelay:   res.Stats.Admission.Delay,
		CPs:          res.CPs,
		BCacheHits:   res.Stats.BCache.Hits,
		BCacheMisses: res.Stats.BCache.Misses,
	}
	sys.Shutdown()
	return p, nil
}

// Overload runs the open-loop overload study: the burst-shaped Poisson
// arrival process against the same system with admission control off and
// on. Off, the burst fills the NVRAM log, every write (both classes)
// stalls behind back-to-back CPs, the queue grows open-loop, and the
// latency-sensitive p99.9 is unbounded — it scales with burst length, not
// service time. On, bulk writes are delayed and then shed as the log
// crosses the watermarks; the log stays below the stall point, and the
// latency-sensitive tail stays bounded while bulk degrades gracefully.
func Overload(rc RunConfig) (Table, []OverloadPoint, error) {
	t := Table{
		ID:    "Overload",
		Title: "Open-loop burst: per-class p99.9 with and without NVLog admission control",
		Headers: []string{"admission", "ls p50", "ls p99", "ls p99.9", "bulk p99.9",
			"shed", "stalls", "stall time", "admit delay", "cps", "bc hit%"},
	}
	base := OverloadConfig(rc.Base)
	var points []OverloadPoint
	for _, on := range []bool{false, true} {
		cfg := base
		cfg.Admission.Enabled = on
		mode := "admission-off"
		if on {
			mode = "admission-on"
		}
		p, err := runOverload(cfg, rc.Warmup, rc.Window, mode)
		if err != nil {
			return Table{}, nil, err
		}
		points = append(points, p)
		hitPct := 0.0
		if lookups := p.BCacheHits + p.BCacheMisses; lookups > 0 {
			hitPct = 100 * float64(p.BCacheHits) / float64(lookups)
		}
		t.Rows = append(t.Rows, []string{
			mode, us(p.LSP50), us(p.LSP99), ms(p.LSP999), ms(p.BulkP999),
			fmt.Sprintf("%d", p.Shed), fmt.Sprintf("%d", p.Stalls), ms(p.StallTime),
			ms(p.AdmitDelay), fmt.Sprintf("%d", p.CPs), f2(hitPct),
		})
	}
	t.Notes = append(t.Notes,
		"sojourn latency: completion - arrival, queue wait included (open loop)",
		"off: burst fills NVLog, back-to-back CP stalls hit both classes",
		"on: bulk delayed/shed at the watermarks, LS tail stays bounded")
	return t, points, nil
}

// OverloadCheck runs the study and asserts the SLO contract that the
// admission controller exists to provide:
//
//  1. with admission off, the burst drives the latency-sensitive p99.9
//     into open-loop blowup (well beyond any service-time bound);
//  2. with admission on, bulk load is actually shed (the controller
//     engaged) and the latency-sensitive p99.9 stays bounded — an order
//     of magnitude below the admission-off tail.
//
// It is the registry's "overloadcheck" gate (`make overloadcheck`, CI); the
// study's table is returned either way.
func OverloadCheck(rc RunConfig) (Table, error) {
	t, points, err := Overload(rc)
	if err != nil {
		return t, err
	}
	off, on := points[0], points[1]
	const lsSLO = 20 * wafl.Millisecond
	if off.LSP999 < 2*lsSLO {
		return t, fmt.Errorf("admission-off LS p99.9 = %v: burst did not overload the system (want >= %v)",
			off.LSP999, 2*lsSLO)
	}
	if on.Shed == 0 {
		return t, fmt.Errorf("admission-on shed no bulk writes: controller never engaged")
	}
	if on.LSP999 > lsSLO {
		return t, fmt.Errorf("admission-on LS p99.9 = %v exceeds SLO %v", on.LSP999, lsSLO)
	}
	if on.LSP999*4 > off.LSP999 {
		return t, fmt.Errorf("admission-on LS p99.9 = %v not well under admission-off %v", on.LSP999, off.LSP999)
	}
	return t, nil
}
