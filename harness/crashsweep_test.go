package harness

import (
	"strings"
	"testing"
)

// TestCrashSweepSmall runs a miniature crash-schedule sweep — one seed, a
// few event-index points (and as many of the history schedule), a few phase
// boundaries — end to end. The full sweep is `make crashsweep`; this keeps
// `go test ./...` coverage of the harness itself cheap.
func TestCrashSweepSmall(t *testing.T) {
	cfg := DefaultCrashSweep()
	cfg.Seeds = []int64{1}
	cfg.Points = 2
	cfg.Phases = 3
	cfg.Clients = 2
	cfg.OpsPerClient = 60
	cfg.ClonePoints = 3
	tab, res, err := CrashSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 CP modes x (2 event indices + 2 of the history schedule + 3 phase
	// boundaries) + 1 overload point + 3 clone-window boundaries.
	if res.PointsRun != 18 || res.Requested != 18 {
		t.Fatalf("ran %d of %d points, want 18 of 18:\n%s", res.PointsRun, res.Requested, tab.String())
	}
	if !res.OK() {
		t.Fatalf("sweep failed:\n%s", tab.String())
	}
}

// TestSweepRunsShort: a boundary schedule asked for more boundaries than its
// workload reaches says so in its row and in the result, instead of stopping
// quietly — the registry's verdict turns that into a gate failure.
func TestSweepRunsShort(t *testing.T) {
	cfg := DefaultCrashSweep()
	cfg.Seeds, cfg.Points, cfg.Overload, cfg.ClonePoints = []int64{1}, 0, false, 0
	cfg.Modes, cfg.Clients, cfg.OpsPerClient, cfg.SnapEvery, cfg.Phases = []bool{true}, 1, 20, 5, 40
	tab, res, err := CrashSweep(cfg)
	if err != nil || !res.OK() {
		t.Fatalf("%v\n%s", err, tab.String())
	}
	if res.Requested != 40 || res.PointsRun == 0 || res.PointsRun >= 40 || !strings.Contains(tab.Rows[0][2], "of 40: boundary space exhausted") {
		t.Fatalf("ran %d of %d; want a short row:\n%s", res.PointsRun, res.Requested, tab.String())
	}
}
