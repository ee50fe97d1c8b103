package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

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
		return rc.verdict(crashSweep(crashSchedules(rc.deepen(sweepPoints, []int64{1, 2}))))
	}},
	{Name: "clustersweep", Gate: true, Run: func(rc RunConfig) (Table, error) {
		points, seeds := rc.deepen(clusterPoints, []int64{1, 2})
		return rc.verdict(runSchedules("clustersweep", "independent member crash/recovery under surviving traffic",
			clusterSchedules(max(2, rc.Base.Members), points, seeds),
			"member-crash points: survivor progress, recovery, double crash, per-member fsck all verified"))
	}},
	// clonesweep is crashsweep's clone-ops schedule on its own, for going
	// deeper than the 18 boundaries the default sweep already covers.
	{Name: "clonesweep", Gate: true, Run: func(rc RunConfig) (Table, error) {
		points, seeds := rc.deepen(cloneBounds, []int64{1})
		return rc.verdict(crashSweep([]schedule{cloneSchedule(seeds[0], points)}))
	}},
	{Name: "overloadcheck", Gate: true, Run: OverloadCheck},
}

// The cluster scaling sweep keeps its own warm-up and window, whatever the
// run's.
const (
	flexWarmup = 100 * wafl.Millisecond
	flexWindow = 300 * wafl.Millisecond
)

// runFlexgroup is the registry's cluster scaling entry: the default manyfile
// load per member (the metadata-heavy workload whose CPs are dominated by
// per-volume metadata phases, the hardest one to scale), every member the
// run's box.
func runFlexgroup(rc RunConfig) (Table, error) {
	rc.Warmup, rc.Window = flexWarmup, flexWindow
	t, _, err := flexgroup(rc, workload.DefaultManyFile())
	return t, err
}

// deepen returns a sweep's default depth with the run's overrides, when
// given, applied.
func (rc RunConfig) deepen(points int, seeds []int64) (int, []int64) {
	if rc.Points > 0 {
		points = rc.Points
	}
	if len(rc.Seeds) > 0 {
		seeds = rc.Seeds
	}
	return points, seeds
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
