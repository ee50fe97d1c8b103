package harness

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"wafl"
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

// TestOverloadCheck runs the overloadcheck gate at its own settings
// (DefaultRun): admission off must blow the latency-sensitive p99.9 up, and
// admission on must shed bulk writes and bound it.
func TestOverloadCheck(t *testing.T) {
	if tab, err := OverloadCheck(DefaultRun()); err != nil {
		t.Fatalf("%v\n%s", err, tab.String())
	}
}

// TestRegistryTables runs every registry entry that is not a gate — every
// table `waflbench -exp all` prints — at expsmoke's windows (a 4 ms window
// after a 2 ms warm-up; flexgroup keeps its own), side by side, and checks
// each table's shape: an ID and a title, headers, at least one row, every
// row as wide as the headers, and every throughput cell (an ops/s or MB/s
// column) a finite number above zero. The figures themselves mean nothing
// at these windows. flexgroup sweeps widths 1 and 2 (`-members 2`): its
// 4-member run would take more host time than the rest of its sweep and
// adds nothing to the shape. The gates run in their own sweep tests.
func TestRegistryTables(t *testing.T) {
	for _, e := range Experiments {
		if e.Gate {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			rc := DefaultRun()
			rc.Warmup, rc.Window = 2*wafl.Millisecond, 4*wafl.Millisecond
			if e.Name == "flexgroup" {
				rc.Base.Members = 2
			}
			tab, err := e.Run(rc)
			if err != nil {
				t.Fatalf("%v\n%s", err, tab.String())
			}
			if tab.ID == "" || tab.Title == "" || len(tab.Headers) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("table %q (%q): %d headers, %d rows", tab.ID, tab.Title, len(tab.Headers), len(tab.Rows))
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Headers) {
					t.Fatalf("row %d has %d cells, %d headers:\n%s", i, len(row), len(tab.Headers), tab.String())
				}
				for c, h := range tab.Headers {
					if !strings.HasSuffix(h, "ops/s") && h != "MB/s" {
						continue
					}
					if v, err := strconv.ParseFloat(row[c], 64); err != nil || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
						t.Errorf("row %d: %s = %q, want a finite throughput above zero", i, h, row[c])
					}
				}
			}
		})
	}
}
