package harness

import (
	"errors"
	"testing"
)

// TestVerdict checks how a sweep's outcome becomes a registry result: a
// failed point is an error (so `make ci` stops), a clean sweep is not, an
// error from the sweep itself wins, and so is a silent under-run.
func TestVerdict(t *testing.T) {
	var rc RunConfig
	if _, err := rc.verdict(Table{}, CrashSweepResult{PointsRun: 3, Requested: 3}, nil); err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
	if _, err := rc.verdict(Table{}, CrashSweepResult{PointsRun: 3, Failures: []string{"x"}}, nil); err == nil {
		t.Fatal("a failed crash point produced no error")
	}
	boom := errors.New("boom")
	if _, err := rc.verdict(Table{}, CrashSweepResult{Failures: []string{"x"}}, boom); !errors.Is(err, boom) {
		t.Fatalf("sweep error replaced by %v", err)
	}
	// A schedule that ran short fails the gate at the default depth only.
	short := CrashSweepResult{PointsRun: 14, Requested: 18}
	if _, err := rc.verdict(Table{}, short, nil); err == nil {
		t.Fatal("a short schedule at the default depth produced no error")
	}
	if _, err := (RunConfig{Points: 40}).verdict(Table{}, short, nil); err != nil {
		t.Fatalf("a short schedule at a requested depth: %v", err)
	}
}

// TestRegistrySweepDepth runs the cheapest gate through the registry with
// the depth overrides set, end to end: the clone schedule alone, at exactly
// the requested number of boundaries, on the requested seed.
func TestRegistrySweepDepth(t *testing.T) {
	rc := DefaultRun()
	rc.Points, rc.Seeds = 2, []int64{3}
	for _, e := range Experiments {
		if e.Name != "clonesweep" {
			continue
		}
		tab, err := e.Run(rc)
		if err != nil {
			t.Fatalf("%v\n%s", err, tab.String())
		}
		if len(tab.Rows) != 1 || tab.Rows[0][0] != "3" || tab.Rows[0][1] != "clone-ops" || tab.Rows[0][2] != "2" {
			t.Fatalf("want one clone-ops row, seed 3, 2 points:\n%s", tab.String())
		}
		return
	}
	t.Fatal("clonesweep is not registered")
}
