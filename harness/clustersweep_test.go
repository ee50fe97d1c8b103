package harness

import (
	"testing"

	"wafl"
)

// TestClusterSweepSmall runs a miniature member-crash sweep — one seed, a
// few event-index points on a two-member cluster — end to end. The full
// sweep is `make clustersweep`; this keeps `go test ./...` coverage of the
// cluster harness cheap.
func TestClusterSweepSmall(t *testing.T) {
	cfg := DefaultClusterSweep()
	cfg.Seeds = []int64{1}
	cfg.Points = 3
	cfg.ClientsPerMember = 2
	cfg.OpsPerClient = 60
	tab, res, err := ClusterSweep(cfg)
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
	base := DefaultCrashSweep().Base // small, fast server shape
	base.Faults = wafl.FaultConfig{} // no fault injection in a perf sweep
	base.NVRAMHalfBytes = 2 << 20
	cfg := FlexgroupConfig{
		Base:             base,
		MemberCounts:     []int{1, 2},
		ClientsPerMember: 8,
		FilesPerClient:   4,
		FileBlocks:       64,
		OpBlocks:         1,
		Warmup:           20 * wafl.Millisecond,
		Window:           80 * wafl.Millisecond,
	}
	tab, res, err := Flexgroup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("want 2 widths, got %d results", len(res))
	}
	if res[1].Speedup < 1.4 {
		t.Fatalf("2 members only %.2fx the 1-member throughput:\n%s", res[1].Speedup, tab.String())
	}
	if got := len(res[1].PerMember); got != 2 {
		t.Fatalf("2-member run reports %d per-member windows", got)
	}
	for i, p := range res[1].PerMember {
		if p.Ops == 0 {
			t.Fatalf("member %d served no ops in the window:\n%s", i, tab.String())
		}
	}
}
