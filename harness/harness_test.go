package harness

import (
	"strings"
	"testing"

	"wafl"
	"wafl/workload"
)

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID:      "T1",
		Title:   "demo",
		Headers: []string{"a", "bee"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	out := tab.String()
	for _, want := range []string{"== T1: demo ==", "a    bee", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestPermutationsShape(t *testing.T) {
	rc := DefaultRun()
	rc.Cleaners = 6
	ps := rc.permutations(workload.DefaultSeqWrite())
	if len(ps) != 4 {
		t.Fatalf("permutations = %d, want 4", len(ps))
	}
	if a := ps[0].cfg.Allocator; a.InfraParallel || a.InitialCleaners != 1 || a.MaxCleaners != 1 {
		t.Fatal("baseline must be fully serialized")
	}
	if a := ps[3].cfg.Allocator; !a.InfraParallel || a.InitialCleaners != 6 || a.MaxCleaners != 6 {
		t.Fatal("last permutation must be fully parallel")
	}
}

// smallRun shrinks the experiment for unit testing.
func smallRun() RunConfig {
	rc := DefaultRun()
	rc.Base.Cores = 8
	rc.Base.RAIDGroups = 2
	rc.Base.DataDrives = 3
	rc.Base.DriveBlocks = 16384
	rc.Base.AAStripes = 1024
	rc.Base.Volumes = 2
	rc.Base.VolumeBlocks = 1 << 15
	rc.Base.NVRAMHalfBytes = 2 << 20
	rc.Base.Allocator.MaxCleaners = 3
	rc.Warmup = 30 * wafl.Millisecond
	rc.Window = 80 * wafl.Millisecond
	return rc
}

// smallSeqWrite is a sequential-write load sized for smallRun.
func smallSeqWrite(clients int) workload.SeqWrite {
	w := workload.DefaultSeqWrite()
	w.Clients = clients
	w.Volumes = 2
	w.FileBlocks = 2048
	return w
}

// TestMeasureRunsAndTearsDown: the runner measures a window and returns the
// shut-down system for its statistics, and so does Measure over it.
func TestMeasureRunsAndTearsDown(t *testing.T) {
	rc := smallRun()
	m, err := rc.run(newScenario(nil, rc.Base, smallSeqWrite(4)))
	if err != nil {
		t.Fatal(err)
	}
	if m.res.Ops == 0 || len(m.members) != 1 || m.members[0].Ops != m.res.Ops {
		t.Fatalf("window of %d ops, members %+v", m.res.Ops, m.members)
	}
	if m.sys == nil {
		t.Fatal("system not returned for stats")
	}
	res, sys, err := rc.Measure(rc.Base, smallSeqWrite(4))
	if err != nil || res.Ops != m.res.Ops || sys == nil {
		t.Fatalf("Measure: %d ops, system %p, error %v; the runner measured %d ops", res.Ops, sys, err, m.res.Ops)
	}
	bad := rc.Base
	bad.VolumeBlocks = 1 << 32 // past the address-space guard: NewSystem refuses it
	if _, err := rc.run(newScenario([]string{"too", "large"}, bad, smallSeqWrite(4))); err == nil || !strings.HasPrefix(err.Error(), `row "too large": `) {
		t.Fatalf("a refused config's error is %v; want it to name the row", err)
	}
}

func TestRunPermutationsOrdering(t *testing.T) {
	rc := smallRun()
	rc.Cleaners = 3
	runs, err := rc.runAll(rc.permutations(smallSeqWrite(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("%d results", len(runs))
	}
	base := runs[0].res.OpsPerSec
	full := runs[3].res.OpsPerSec
	if full <= base {
		t.Fatalf("full parallelism (%f) must beat the serialized baseline (%f)", full, base)
	}
	// Cleaners-parallel should beat the baseline too (the paper's +82%).
	if runs[2].res.OpsPerSec <= base {
		t.Fatal("parallel cleaners did not improve on the baseline")
	}
}

func TestPermTableHasRelativeColumns(t *testing.T) {
	rc := smallRun()
	rc.Cleaners = 2
	tab, _, err := rc.permTable("FigX", "test", smallSeqWrite(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][2] != "+0%" {
		t.Fatalf("baseline rel = %q", tab.Rows[0][2])
	}
}
