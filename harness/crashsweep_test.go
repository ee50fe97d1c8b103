package harness

import "testing"

// TestCrashSweepSmall runs a miniature crash-schedule sweep — one seed, a
// few event-index points, a few phase boundaries — end to end. The full
// sweep is `make crashsweep`; this keeps `go test ./...` coverage of the
// harness itself cheap.
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
	if res.PointsRun == 0 {
		t.Fatal("sweep ran no crash points")
	}
	if !res.OK() {
		t.Fatalf("sweep failed:\n%s", tab.String())
	}
}
