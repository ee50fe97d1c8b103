package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own child process: run()
// re-executes os.Executable() with the leg spec in the environment.
func TestMain(m *testing.M) {
	if spec := os.Getenv(legEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks BENCHMARK.json against the limits of the benchmark
// contract and against the workloads the program implements.
func TestManifest(t *testing.T) {
	man, err := loadManifest(filepath.Join("..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", man.Paths)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest declares %d workloads, program implements %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range man.EndToEnd {
		name(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: end-to-end bound must be in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (unit s, better lower) is not declared end to end")
	}
	for _, d := range man.PerLayer {
		name(d.Name)
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(man.EndToEnd, man.PerLayer...) {
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
}

// TestSmokeQuick runs the whole benchmark in quick mode (every workload,
// every leg, kernels and ladder included) and checks that results.json
// holds exactly the metrics BENCHMARK.json declares, for every workload.
func TestSmokeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads end to end")
	}
	out := t.TempDir()
	// The benchmark runs from the repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("bench") //nolint:errcheck // later tests use no relative path
	if code := run(options{quick: true, seed: 1, out: out}); code != 0 {
		t.Fatalf("quick run exited %d", code)
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadResults(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range man.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Errorf("%s: missing from results.json", w.Name)
			continue
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d errors=%v", w.Name, wr.Correct, wr.Failed, wr.Attempted, wr.Errors)
		}
		for kind, pair := range map[string]struct {
			docs []metricDoc
			vals map[string]metricValue
		}{"end_to_end": {man.EndToEnd, wr.EndToEnd}, "per_layer": {man.PerLayer, wr.PerLayer}} {
			declared := map[string]bool{}
			for _, d := range pair.docs {
				declared[d.Name] = true
				if mv, ok := pair.vals[d.Name]; !ok {
					t.Errorf("%s: declared %s metric %s not emitted", w.Name, kind, d.Name)
				} else if mv.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, mv.Unit, d.Unit)
				}
			}
			for k := range pair.vals {
				if !declared[k] {
					t.Errorf("%s: undeclared %s metric %s emitted", w.Name, kind, k)
				}
			}
		}
		for _, d := range man.EndToEnd {
			if wr.EndToEnd[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
			}
		}
		for _, suffix := range []string{".spans.json", ".cpu.pprof", ".trace.json", ".trace.hist.txt"} {
			if st, err := os.Stat(filepath.Join(out, w.Name+suffix)); err != nil || st.Size() == 0 {
				t.Errorf("%s: artifact %s missing or empty", w.Name, suffix)
			}
		}
	}
}

func TestAttributeStack(t *testing.T) {
	for _, tc := range []struct {
		frames []string // innermost first
		want   string
	}{
		{[]string{"runtime.memmove", "wafl/internal/block.Clone", "wafl/internal/fs.(*Buffer).MutableData", "wafl/internal/fs.(*File).WriteBlock", "wafl.(*ClientCtx).WriteTag"}, "block"},
		{[]string{"runtime.mallocgc", "runtime.makeslice", "wafl/internal/fs.(*File).WriteBlock", "wafl.(*ClientCtx).WriteTag.func1"}, "fs"},
		{[]string{"runtime.chansend", "wafl/internal/sim.(*Scheduler).runThread", "wafl/internal/sim.(*Scheduler).Run", "wafl.(*System).Run", "main.runWorkloadLeg"}, "sim"},
		{[]string{"wafl.(*ClientCtx).Write", "wafl/workload.SeqWrite.Attach.func1", "wafl/internal/sim.(*Scheduler).spawn.func1"}, "facade"},
		{[]string{"math/rand.(*Rand).Int63n", "wafl/workload.(*OpenLoop).Attach.func1", "wafl.(*System).ClientThread.func1"}, "workload"},
		{[]string{"wafl/internal/clone.Decode", "wafl/internal/aggregate.(*Volume).CloneState"}, "aggregate"},
		{[]string{"wafl/internal/faultinject.(*Injector).WriteFault", "wafl/internal/storage.(*Drive).Write"}, "storage"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime_other"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "wafl/internal/block.Clone"}, "block"},
		{nil, "runtime_other"},
	} {
		if got := attributeStack(tc.frames); got != tc.want {
			t.Errorf("attributeStack(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// Test encoders for the profile.proto subset parseProfile reads.
func pbVarint(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(num int, v uint64) []byte { return append(pbVarint(uint64(num)<<3), pbVarint(v)...) }

func pbBytes(num int, p []byte) []byte {
	return append(append(pbVarint(uint64(num)<<3|2), pbVarint(uint64(len(p)))...), p...)
}

func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "runtime.memmove", "wafl/internal/block.Clone", "wafl/internal/fs.(*File).WriteBlock"}
	var prof []byte
	// Location 1 = memmove; location 2 = Clone inlined into WriteBlock (two
	// lines, innermost first); sample 1 is packed, sample 2 is not.
	prof = append(prof, pbBytes(2, append(pbBytes(1, append(pbVarint(1), pbVarint(2)...)), pbBytes(2, append(pbVarint(7), pbVarint(70)...))...))...)
	prof = append(prof, pbBytes(2, append(pbInt(1, 2), pbInt(2, 3)...))...)
	prof = append(prof, pbBytes(4, append(pbInt(1, 1), pbBytes(4, pbInt(1, 10))...))...)
	prof = append(prof, pbBytes(4, append(append(pbInt(1, 2), pbBytes(4, pbInt(1, 11))...), pbBytes(4, pbInt(1, 12))...))...)
	for i, id := range []uint64{10, 11, 12} {
		prof = append(prof, pbBytes(5, append(pbInt(1, id), pbInt(2, uint64(3+i))...))...)
	}
	for _, s := range strs {
		prof = append(prof, pbBytes(6, []byte(s))...)
	}
	stacks, err := parseProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{frames: []string{"runtime.memmove", "wafl/internal/block.Clone", "wafl/internal/fs.(*File).WriteBlock"}, count: 7},
		{frames: []string{"wafl/internal/block.Clone", "wafl/internal/fs.(*File).WriteBlock"}, count: 3},
	}
	got, _ := json.Marshal(stacks)
	if len(stacks) != 2 || strings.Join(stacks[0].frames, "|") != strings.Join(want[0].frames, "|") || stacks[0].count != 7 ||
		strings.Join(stacks[1].frames, "|") != strings.Join(want[1].frames, "|") || stacks[1].count != 3 {
		t.Errorf("parseProfile = %s (%+v), want %+v", got, stacks, want)
	}
	if _, err := parseProfile(prof[:len(prof)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.10
	lower := metricDoc{Name: "host_cpu_us_per_simop", Better: "lower", Bound: &bound}
	higher := metricDoc{Name: "sim_ops_per_s", Better: "higher", Bound: &bound}
	steady := []float64{99, 100, 100, 100, 101}
	for _, tc := range []struct {
		doc  metricDoc
		a, b metricValue
		want string
	}{
		{lower, metricValue{Value: 100, Reps: steady}, metricValue{Value: 105}, verdictWithin},
		{lower, metricValue{Value: 100, Reps: steady}, metricValue{Value: 111}, verdictWorse},
		{lower, metricValue{Value: 100, Reps: steady}, metricValue{Value: 80}, verdictBetter},
		{higher, metricValue{Value: 100}, metricValue{Value: 80}, verdictWorse},
		{higher, metricValue{Value: 100}, metricValue{Value: 120}, verdictBetter},
		{higher, metricValue{Value: 100}, metricValue{Value: 100}, verdictWithin},
		// A's own reps spread wider than the bound: no verdict possible.
		{lower, metricValue{Value: 100, Reps: []float64{80, 90, 100, 110, 120}}, metricValue{Value: 130}, verdictUnresolved},
		{lower, metricValue{Value: 0}, metricValue{Value: 1}, verdictWorse},
	} {
		if got, _ := verdict(tc.doc, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", tc.doc.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

func TestDeterminismGateNamesFirstDifference(t *testing.T) {
	a := legResult{Sim: map[string]float64{"sim.events": 10, "cp.count": 3, "sim_ops_per_s": 5}, Attempted: 7}
	b := legResult{Sim: map[string]float64{"sim.events": 11, "cp.count": 4, "sim_ops_per_s": 5, "obs.trace_events": 9}, Attempted: 7}
	if got := determinismGate([]legResult{a, a}); got != "" {
		t.Errorf("identical legs: %q", got)
	}
	if got := determinismGate([]legResult{a, b}); !strings.HasPrefix(got, "cp.count = 3") {
		t.Errorf("gate reported %q, want the first differing metric in name order (cp.count)", got)
	}
	c := a
	c.Attempted = 8
	if got := determinismGate([]legResult{a, c}); !strings.Contains(got, "attempted") {
		t.Errorf("gate reported %q, want an op-count difference", got)
	}
}
