package harness

import (
	"testing"

	"wafl"
	"wafl/workload"
)

// TestClusterSweepSmall runs a miniature member-crash sweep — one seed, a
// few event-index points on a two-member cluster — end to end. The full
// sweep is `make clustersweep`; this keeps `go test ./...` coverage of the
// cluster harness cheap.
func TestClusterSweepSmall(t *testing.T) {
	tab, res, err := runSchedules("clustersweep", "member crash", clusterSchedules(2, 3, []int64{1}), "verified")
	if err != nil {
		t.Fatal(err)
	}
	if res.PointsRun != 3 || res.Requested != 3 {
		t.Fatalf("ran %d of %d points, want 3 of 3", res.PointsRun, res.Requested)
	}
	if !res.OK() {
		t.Fatalf("sweep failed:\n%s", tab.String())
	}
}

// TestFlexgroupSmall runs a two-width scaling sweep on a small cluster and
// checks that two members beat one by a clear margin (the full 1/2/4 curve
// with the paper-shaped config is `waflbench -exp flexgroup`).
func TestFlexgroupSmall(t *testing.T) {
	rc := RunConfig{Base: sweepConfig(), Warmup: 20 * wafl.Millisecond, Window: 80 * wafl.Millisecond}
	rc.Base.Faults = wafl.FaultConfig{} // no fault injection in a perf sweep
	rc.Base.NVRAMHalfBytes = 2 << 20
	rc.Base.Members = 2 // widths 1 and 2
	w := workload.DefaultManyFile()
	w.Clients = 8
	tab, runs, err := flexgroup(rc, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("want 2 widths, got %d results", len(runs))
	}
	if runs[0].res.OpsPerSec <= 0 {
		t.Fatalf("the 1-member run served no ops:\n%s", tab.String())
	}
	if speedup := runs[1].res.OpsPerSec / runs[0].res.OpsPerSec; speedup < 1.4 {
		t.Fatalf("2 members only %.2fx the 1-member throughput:\n%s", speedup, tab.String())
	}
	if got := len(runs[1].members); got != 2 {
		t.Fatalf("2-member run reports %d per-member windows", got)
	}
	for i, p := range runs[1].members {
		if p.Ops == 0 {
			t.Fatalf("member %d served no ops in the window:\n%s", i, tab.String())
		}
	}
}
