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
	scs := []scenario{
		newScenario([]string{"no snapshots"}, rc.Base,
			workload.RandWrite{Clients: churn.Clients, FileBlocks: churn.FileBlocks, Volumes: churn.Volumes}),
		newScenario([]string{"snapshot churn"}, rc.Base, churn),
	}
	t, _, err := rc.rows(t, scs, func(m, _ measurement) []string {
		cp := m.sys.Stats().CP // cumulative snapshot activity
		var active, held, free uint64
		for v := 0; v < m.cfg.Volumes; v++ {
			fs := m.sys.FreeSpaceBreakdown(v)
			active += fs.Active
			held += fs.SnapOnly
			free += fs.Free
		}
		return []string{f2(m.res.MBPerSec), ms(m.res.LatP50), ms(m.res.LatP99), fmt.Sprint(m.res.CPs),
			fmt.Sprintf("%d/%d", cp.SnapsCreated, cp.SnapsDeleted), fmt.Sprint(cp.SnapReclaimed),
			fmt.Sprint(active), fmt.Sprint(held), fmt.Sprint(free)}
	})
	t.Notes = append(t.Notes,
		"snap-held blocks are clear in the activemap but pinned by the summary map until the last holding snapshot is deleted")
	return t, err
}
