package harness

import "fmt"

// Experiments is the ordered registry of everything the harness runs by
// name: the paper's figures and the later studies (tables), then the gates
// `make ci` runs — the crash sweeps and the admission SLO check, whose
// failure is the returned error (their table, FAIL notes included, is
// returned either way). waflbench is a front end over this list and nothing
// else; `-exp all` is every entry that is not a gate, in this order.
var Experiments = []struct {
	Name string
	Gate bool // a CI pass/fail check rather than a table of the evaluation
	Run  func(RunConfig) (Table, error)
}{
	{Name: "fig4", Run: Fig4},
	{Name: "fig5", Run: Fig5},
	{Name: "fig6", Run: Fig6},
	{Name: "fig7", Run: Fig7},
	{Name: "fig8", Run: Fig8},
	{Name: "fig9", Run: Fig9},
	{Name: "batch", Run: BatchedCleaning},
	{Name: "ablations", Run: Ablations},
	{Name: "snapchurn", Run: SnapshotChurn},
	{Name: "agedvol", Run: AgedVolume},
	{Name: "clonefleet", Run: CloneFleet},
	{Name: "parallelcp", Run: ParallelCP},
	{Name: "overload", Run: func(rc RunConfig) (Table, error) {
		t, _, err := Overload(rc)
		return t, err
	}},
	{Name: "flexgroup", Run: runFlexgroup},
	{Name: "crashsweep", Gate: true, Run: func(rc RunConfig) (Table, error) {
		cfg := DefaultCrashSweep()
		rc.deepen(&cfg.Points, &cfg.Seeds)
		return rc.verdict(CrashSweep(cfg))
	}},
	{Name: "clustersweep", Gate: true, Run: func(rc RunConfig) (Table, error) {
		cfg := DefaultClusterSweep()
		if rc.Base.Members > 1 {
			cfg.Base.Members = rc.Base.Members
		}
		rc.deepen(&cfg.Points, &cfg.Seeds)
		return rc.verdict(ClusterSweep(cfg))
	}},
	// clonesweep is crashsweep's clone-ops schedule on its own, for going
	// deeper than the 18 boundaries the default sweep already covers.
	{Name: "clonesweep", Gate: true, Run: func(rc RunConfig) (Table, error) {
		cfg := DefaultCrashSweep()
		cfg.Points, cfg.Phases, cfg.Overload, cfg.Seeds = 0, 0, false, []int64{1}
		rc.deepen(&cfg.ClonePoints, &cfg.Seeds)
		return rc.verdict(CrashSweep(cfg))
	}},
	{Name: "overloadcheck", Gate: true, Run: OverloadCheck},
}

// runFlexgroup is the registry's cluster scaling entry: widths 1, 2, 4, ...
// up to rc.Base.Members (1/2/4 when that is below 2), every member the
// default box. The sweep keeps DefaultFlexgroup's own warm-up and window.
func runFlexgroup(rc RunConfig) (Table, error) {
	fc := DefaultFlexgroup()
	if rc.Base.Members >= 2 {
		fc.MemberCounts = nil
		for n := 1; n <= rc.Base.Members; n *= 2 {
			fc.MemberCounts = append(fc.MemberCounts, n)
		}
	}
	t, _, err := Flexgroup(fc)
	return t, err
}

// deepen applies the run's sweep-depth overrides, when given, to a sweep's
// defaults.
func (rc RunConfig) deepen(points *int, seeds *[]int64) {
	if rc.Points > 0 {
		*points = rc.Points
	}
	if len(rc.Seeds) > 0 {
		*seeds = rc.Seeds
	}
}

// verdict turns a sweep's outcome into a registry result: the table, and an
// error unless every crash point passed — and, at the default depth (no
// -points), every requested point ran: all of those are reachable, so a
// schedule that stopped short has silently lost coverage.
func (rc RunConfig) verdict(tab Table, res CrashSweepResult, err error) (Table, error) {
	if err == nil && !res.OK() {
		err = fmt.Errorf("%d failure(s) over %d crash points", len(res.Failures), res.PointsRun)
	}
	if err == nil && rc.Points == 0 && res.PointsRun < res.Requested {
		err = fmt.Errorf("ran %d of %d crash points: a schedule's boundary space was exhausted", res.PointsRun, res.Requested)
	}
	return tab, err
}
