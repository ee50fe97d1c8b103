package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// CloneFleet is the clone-heavy variant of the aged-volume benchmark: two
// dense snapshotted parents fan into a fleet of aged writable clones, and
// measurement runs fleet-wide random writers while per-parent managers
// cycle churn → instant SnapRestore and a background split peels one clone
// off. Every clone write is a COW against a summary-held base block and
// every parent map is pinned by both the base snapshot and the fleet's
// holds, so bucket fills face the worst free-index shape the subsystem can
// produce — compared, like agedvol, between the legacy bitmap scan and
// hierarchical free accounting. The restore columns are the O(metadata)
// evidence: blocks rewritten per revert against the volume's block count.
func CloneFleet(rc RunConfig) (Table, error) {
	t := Table{
		ID:    "clonefleet",
		Title: "Aged clone fleet: COW divergence + instant restore churn vs free-index mode",
		Headers: []string{"mode", "ops/s", "MB/s", "lat p50", "lat p99",
			"words/vbucket", "clone-held", "restores", "meta-blk/restore", "splits", "infra cores"},
	}
	var perVB [2]float64   // fill words per installed vbucket, by mode
	var cs wafl.CloneStats // the last (hierarchical) mode's block debt and
	var cp wafl.CPStats    // its clone and restore counters since format

	const volBlocks = 1 << 18
	w := workload.DefaultCloneFleet()
	modes := []struct {
		name string
		hier bool
	}{
		{"legacy scan", false},
		{"hierarchical", true},
	}
	for i, m := range modes {
		cfg := rc.Base
		cfg.Volumes = w.Volumes
		cfg.CloneSlots = w.Slots()
		cfg.VolumeBlocks = volBlocks // same aged shape as agedvol
		cfg.DriveBlocks = 131072
		cfg.Allocator.HierarchicalFree = m.hier
		// Attach prefills, fans out and ages by divergence in simulated time.
		res, sys, err := Measure(cfg, w, rc.Warmup, rc.Window)
		if err != nil {
			return t, err
		}
		cs, cp = sys.CloneStats(), sys.Stats().CP
		perVB[i] = wordsPerVBucket(res.Stats.Infra)
		t.Rows = append(t.Rows, []string{
			m.name, f0(res.OpsPerSec), f2(res.MBPerSec), ms(res.LatP50), ms(res.LatP99),
			f2(perVB[i]), fmt.Sprintf("%d", cs.CloneHeld),
			fmt.Sprintf("%d", cp.Restores), f0(restoreMetaPerOp(cp)),
			fmt.Sprintf("%d", cp.SplitsDone), f2(res.Cores.Infra),
		})
	}
	if perVB[1] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"fill words per installed vbucket under clone holds: %.1f -> %.1f (%.1fx reduction)",
			perVB[0], perVB[1], perVB[0]/perVB[1]))
	}
	if cp.Restores > 0 {
		perOp := restoreMetaPerOp(cp)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"SnapRestore is O(metadata): %.0f blocks rewritten per revert of a %d-block volume (%.2f%%), zero data copies",
			perOp, volBlocks, 100*perOp/volBlocks))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d clones per run (%d parents x %d), aged %d divergence rounds; %d background split(s)",
		w.Slots(), w.Volumes, w.ClonesPerVol, w.AgeRounds, w.SplitClones))
	return t, nil
}

// restoreMetaPerOp is the metadata blocks rewritten per SnapRestore (0 when
// none ran).
func restoreMetaPerOp(cp wafl.CPStats) float64 {
	if cp.Restores == 0 {
		return 0
	}
	return float64(cp.RestoreBlocks) / float64(cp.Restores)
}
