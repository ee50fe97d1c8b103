package harness

import (
	"fmt"

	"wafl/workload"
)

// SnapshotChurn measures the cost of write allocation under snapshot churn:
// the same random-overwrite load is run bare, then with a rotating ring of
// per-volume snapshots (create every few thousand ops, delete the oldest
// beyond the ring size). Snapshots force the allocator onto the
// free = !active && !summary path and make every overwrite of a held block
// consume a fresh VVBN, so the comparison exposes the summary-map scan and
// reclamation overheads alongside the free-space split they produce.
func SnapshotChurn(rc RunConfig) (Table, error) {
	t := Table{
		ID:    "snapchurn",
		Title: "Random overwrite under snapshot churn (rotating per-volume ring)",
		Headers: []string{"mode", "MB/s", "lat p50", "lat p99", "CPs",
			"snaps +/-", "reclaimed blks", "active", "snap-held", "free"},
	}
	churn := workload.DefaultSnapChurn()
	modes := []struct {
		name string
		w    Attacher
	}{
		{"no snapshots", workload.RandWrite{Clients: churn.Clients, FileBlocks: churn.FileBlocks, Volumes: churn.Volumes}},
		{"snapshot churn", churn},
	}
	for _, m := range modes {
		cfg := rc.Base
		res, sys, err := rc.Measure(cfg, m.w)
		if err != nil {
			return t, err
		}
		cp := sys.Stats().CP // cumulative snapshot activity
		var active, held, free uint64
		for v := 0; v < cfg.Volumes; v++ {
			fs := sys.FreeSpaceBreakdown(v)
			active += fs.Active
			held += fs.SnapOnly
			free += fs.Free
		}
		t.Rows = append(t.Rows, []string{
			m.name, f2(res.MBPerSec), ms(res.LatP50), ms(res.LatP99),
			fmt.Sprintf("%d", res.CPs),
			fmt.Sprintf("%d/%d", cp.SnapsCreated, cp.SnapsDeleted),
			fmt.Sprintf("%d", cp.SnapReclaimed),
			fmt.Sprintf("%d", active), fmt.Sprintf("%d", held), fmt.Sprintf("%d", free),
		})
	}
	t.Notes = append(t.Notes,
		"snap-held blocks are clear in the activemap but pinned by the summary map until the last holding snapshot is deleted")
	return t, nil
}
