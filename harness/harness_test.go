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
	ps := permutations(6)
	if len(ps) != 4 {
		t.Fatalf("permutations = %d, want 4", len(ps))
	}
	if ps[0].InfraParallel || ps[0].Cleaners != 1 {
		t.Fatal("baseline must be fully serialized")
	}
	if !ps[3].InfraParallel || ps[3].Cleaners != 6 {
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

func TestMeasureRunsAndTearsDown(t *testing.T) {
	rc := smallRun()
	w := workload.DefaultSeqWrite()
	w.Clients = 4
	w.Volumes = 2
	w.FileBlocks = 2048
	res, sys, err := Measure(rc.Base, w, rc.Warmup, rc.Window)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops measured")
	}
	if sys == nil {
		t.Fatal("system not returned for stats")
	}
}

func TestRunPermutationsOrdering(t *testing.T) {
	rc := smallRun()
	prs, err := RunPermutations(rc, func() Attacher {
		w := workload.DefaultSeqWrite()
		w.Clients = 6
		w.Volumes = 2
		w.FileBlocks = 2048
		return w
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(prs) != 4 {
		t.Fatalf("%d results", len(prs))
	}
	base := prs[0].Res.OpsPerSec
	full := prs[3].Res.OpsPerSec
	if full <= base {
		t.Fatalf("full parallelism (%f) must beat the serialized baseline (%f)", full, base)
	}
	// Cleaners-parallel should beat the baseline too (the paper's +82%).
	if prs[2].Res.OpsPerSec <= base {
		t.Fatal("parallel cleaners did not improve on the baseline")
	}
}

func TestPermTableHasRelativeColumns(t *testing.T) {
	rc := smallRun()
	prs, err := RunPermutations(rc, func() Attacher {
		w := workload.DefaultSeqWrite()
		w.Clients = 4
		w.Volumes = 2
		w.FileBlocks = 2048
		return w
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab := permTable("FigX", "test", prs)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][2] != "+0%" {
		t.Fatalf("baseline rel = %q", tab.Rows[0][2])
	}
}
