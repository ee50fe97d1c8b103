package harness

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"path/filepath"
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

// registrySums are the SHA-256 sums of the tables TestRegistryTables
// renders, by entry. Every figure is a pure function of the code, so a sum
// moves only with a change that moves a simulated number; such a change
// rewrites these sums and harness/testdata/registry.txt (`make registry`)
// together, and says which rows moved and why.
var registrySums = map[string]string{
	"ablations":  "2a562248c9a70aa32181f4273490df45d2e4928fa887cfadd24fd3bb926a149c",
	"agedvol":    "73d1ee0a307e374554023d2d377d9764f06aee34254ab64d0175cc843bb9fdf1",
	"batch":      "684599a0073fbdb34ee993c5f00ebea4ad17fbf5c4ab57adb7539358ef43c0e8",
	"clonefleet": "738953f7f6927d3001a45b3fe824aa96b9cd625fbe1ce17e47294797374637db",
	"fig4":       "ef8e8be41dc24e805489f30a161021098ec996908b060757ad3b64524eb46bda",
	"fig5":       "f9af42a146d26fd22529066a115a927d6a08e5e5a4eeb0734fabda370dda8795",
	"fig6":       "566ca620d10f201bd92d14fa2419d63dce939a825b30570790d3eb1be16a052d",
	"fig7":       "8697b0903432618046c58752683927d785e0bfd8f4e13d3b0849bbdb33de54fc",
	"fig8":       "768c7be415bb31816cff4e7291b1c3c713c241935b0992c37487f2429915a45d",
	"fig9":       "b473f8fe1b58b89e328410dde2a117d7926e0bd30a251d87ed380e32864a8309",
	"flexgroup":  "836fcdbee028c46ad28f3ae1f19fa45726832fa1d2c2caa6b21a17471cd648b2",
	"overload":   "3fec9f896162dfc5dd156db84d4bf86096730e08ef5609fc8ad021475593861a",
	"parallelcp": "c131515830533f18b0e8a3199b54dc2080070dd2ad8eeaef7ae574687bb6d5d3",
	"snapchurn":  "65ffd22d783d77efed4400f4201713d60edf8b8b813a2132483298322eb7d072",
}

// overloadTestWindow is the overload study's window in TestRegistryTables.
// Its rows are histogram-bucket quantiles, counts and µs-rounded sums: at
// expsmoke's 4 ms they hold no CP and read the same in both modes, and
// below an 88 ms window a 1 ns change to Costs.ClientOp moves none of them.
const overloadTestWindow = 90 * wafl.Millisecond

// TestRegistryTables runs every registry entry that is not a gate — every
// table `waflbench -exp all` prints — at expsmoke's windows (a 4 ms window
// after a 2 ms warm-up; flexgroup keeps its own, overload's window is
// overloadTestWindow), side by side, and checks each table's shape: an ID
// and a title, headers, at least one row, every row as wide as the headers,
// and every throughput cell (an ops/s or MB/s column) a finite number above
// zero. It then compares each table's SHA-256
// with registrySums: the figures mean nothing for the paper at these
// windows, but they are exact, and a 1 ns change to one CPU cost already
// moves them. flexgroup sweeps widths 1 and 2 (`-members 2`): its 4-member
// run would take more host time than the rest of its sweep and adds nothing
// to the shape. The gates run in their own sweep tests.
func TestRegistryTables(t *testing.T) {
	for _, e := range Experiments {
		if e.Gate {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			rc := DefaultRun()
			rc.Warmup, rc.Window = 2*wafl.Millisecond, 4*wafl.Millisecond
			switch e.Name {
			case "flexgroup":
				rc.Base.Members = 2
			case "overload":
				rc.Window = overloadTestWindow
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
			if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(tab.String()))); sum != registrySums[e.Name] {
				t.Errorf("table's SHA-256 is %s, registrySums has %q: a simulated number moved\n%s", sum, registrySums[e.Name], tab.String())
			}
		})
	}
}

// TestTraceCoversEveryMeasurement: with rc.Trace set, every measurement of
// a table writes its timeline, the overload study's two modes and each of
// flexgroup's widths included.
func TestTraceCoversEveryMeasurement(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	want := map[string]int{"overload": 2, "flexgroup": 2}
	for _, e := range Experiments {
		if want[e.Name] == 0 {
			continue
		}
		rc := DefaultRun()
		rc.Warmup, rc.Window = 2*wafl.Millisecond, 4*wafl.Millisecond
		if e.Name == "flexgroup" {
			// Widths 1 and 2 of a small box, at flexgroup's own windows.
			rc.Base = smallRun().Base
			rc.Base.Members = 2
		}
		rc.Trace = &TraceOut{Prefix: filepath.Join(dir, e.Name), Events: 1000}
		if tab, err := e.Run(rc); err != nil {
			t.Fatalf("%s: %v\n%s", e.Name, err, tab.String())
		}
		files, err := filepath.Glob(filepath.Join(dir, e.Name+"-*.json"))
		if err != nil || len(files) != want[e.Name] {
			t.Errorf("%s wrote %d timelines (%v), want %d", e.Name, len(files), err, want[e.Name])
		}
	}
}
