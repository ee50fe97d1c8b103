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
// admission control off: each mode sets Admission.Enabled explicitly.
func OverloadConfig(base wafl.Config) wafl.Config {
	cfg := base
	cfg.NVRAMHalfBytes = 1 << 20 // 1 MiB halves: burst writes cross watermarks
	cfg.BCacheBlocks = 8192      // working set is 2000 streams x 64 blocks = 128k
	return cfg
}

// openLoopWindow is the study's workload with what it keeps itself, its
// histograms and shed count, as they stood at the window's start: they
// accumulate from t=0, so a mode's point is their difference since. The
// system's own deltas come with the Results.
type openLoopWindow struct {
	w          *workload.OpenLoop
	ls0, bulk0 *wafl.TraceHistogram
	shed0      uint64
}

func (o *openLoopWindow) mark() {
	o.ls0, o.bulk0, o.shed0 = o.w.LSLat.Clone(), o.w.BulkLat.Clone(), o.w.Shed
}

// point reads the mode's point off its window's results.
func (o *openLoopWindow) point(res wafl.Results) OverloadPoint {
	ls, bulk := o.w.LSLat.Delta(o.ls0), o.w.BulkLat.Delta(o.bulk0)
	return OverloadPoint{
		LSP50:        wafl.Duration(ls.Quantile(0.50)),
		LSP99:        wafl.Duration(ls.Quantile(0.99)),
		LSP999:       wafl.Duration(ls.Quantile(0.999)),
		BulkP999:     wafl.Duration(bulk.Quantile(0.999)),
		Shed:         o.w.Shed - o.shed0,
		Stalls:       res.Stalls,
		StallTime:    res.StallTime,
		AdmitDelay:   wafl.Duration(res.Stats.Admission.Delay.Sum),
		CPs:          res.CPs,
		BCacheHits:   res.Stats.BCache.Hits,
		BCacheMisses: res.Stats.BCache.Misses,
	}
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
	var scs []scenario
	var windows []*openLoopWindow
	for i, mode := range []string{"admission-off", "admission-on"} {
		cfg := OverloadConfig(rc.Base)
		cfg.Admission.Enabled = i == 1
		w := workload.DefaultOpenLoop() // the same burst shape for both modes
		o := &openLoopWindow{w: &w}
		sc := newScenario([]string{mode}, cfg, o.w)
		sc.atWindow = o.mark
		scs, windows = append(scs, sc), append(windows, o)
	}
	runs, err := rc.runAll(scs)
	var points []OverloadPoint
	for i, m := range runs {
		p := windows[i].point(m.res)
		points = append(points, p)
		hitPct := 0.0
		if lookups := p.BCacheHits + p.BCacheMisses; lookups > 0 {
			hitPct = 100 * float64(p.BCacheHits) / float64(lookups)
		}
		t.Rows = append(t.Rows, []string{
			m.label[0], us(p.LSP50), us(p.LSP99), ms(p.LSP999), ms(p.BulkP999),
			fmt.Sprintf("%d", p.Shed), fmt.Sprintf("%d", p.Stalls), ms(p.StallTime),
			ms(p.AdmitDelay), fmt.Sprintf("%d", p.CPs), f2(hitPct),
		})
	}
	t.Notes = append(t.Notes,
		"sojourn latency: completion - arrival, queue wait included (open loop)",
		"off: burst fills NVLog, back-to-back CP stalls hit both classes",
		"on: bulk delayed/shed at the watermarks, LS tail stays bounded")
	return t, points, err
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
