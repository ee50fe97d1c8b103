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
// produce; words/vbucket is agedvol's fill cost under that shape. The
// restore columns are the O(metadata) evidence: blocks rewritten per revert
// against the volume's block count.
func CloneFleet(rc RunConfig) (Table, error) {
	t := Table{
		ID:    "clonefleet",
		Title: "Aged clone fleet: fill cost under COW divergence and instant-restore churn",
		Headers: []string{"ops/s", "MB/s", "lat p50", "lat p99",
			"words/vbucket", "clone-held", "restores", "meta-blk/restore", "splits", "infra cores"},
	}
	var w workload.CloneFleet
	cfg := rc.Base
	w.Configure(&cfg)
	// Attach prefills, fans out and ages by divergence in simulated time.
	res, sys, err := rc.Measure(cfg, w)
	if err != nil {
		return t, err
	}
	// The clone and restore counters are the run's since format; clone-held
	// is the bound clones' base blocks still shared with their parents.
	cp, held := sys.Stats().CP, uint64(0)
	for _, cv := range sys.CloneVolumes() {
		held += sys.FreeSpaceBreakdown(cv).CloneHeld
	}
	t.Rows = append(t.Rows, []string{
		f0(res.OpsPerSec), f2(res.MBPerSec), ms(res.LatP50), ms(res.LatP99),
		f2(wordsPerVBucket(res.Stats.Infra)), fmt.Sprintf("%d", held),
		fmt.Sprintf("%d", cp.Restores), f0(restoreMetaPerOp(cp)),
		fmt.Sprintf("%d", cp.SplitsDone), f2(res.Cores.Infra),
	})
	if cp.Restores > 0 {
		perOp := restoreMetaPerOp(cp)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"SnapRestore is O(metadata): %.0f blocks rewritten per revert of a %d-block volume (%.3f%%), zero data copies",
			perOp, cfg.VolumeBlocks, 100*perOp/float64(cfg.VolumeBlocks)))
	}
	t.Notes = append(t.Notes, w.String())
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
