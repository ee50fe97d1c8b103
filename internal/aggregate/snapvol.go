package aggregate

import (
	"slices"

	"wafl/internal/block"
	"wafl/internal/fs"
	"wafl/internal/sim"
	"wafl/internal/snap"
)

// Volume-side snapshot lifecycle. A snapshot create is a two-step protocol:
// the client-facing RequestSnapshot only queues the request (and is what the
// NVRAM log records); the CP engine takes the pending set at freeze and
// calls MaterializeSnapshot once the frozen image's metafile content is
// final, so the captured snapmap/inocopy are exactly the committed CP.
// Delete mirrors deferred file deletion: the snapshot leaves the namespace
// immediately and becomes a zombie reclaimed by the next CP.

// RequestSnapshot queues a snapshot create for the next CP freeze and
// returns its ID: the next unused one when id is 0, else id itself. With an
// explicit ID it is the NVRAM replay path and must be idempotent — a no-op if
// the create is already pending, or was materialized by a CP that completed
// before the crash.
func (v *Volume) RequestSnapshot(id uint64) uint64 {
	if id == 0 {
		id = v.nextSnapID
	}
	if id >= v.nextSnapID {
		v.nextSnapID = id + 1
	}
	if !v.SnapshotExists(id) && !slices.Contains(v.pendSnaps, id) {
		v.pendSnaps = append(v.pendSnaps, id)
	}
	return id
}

// SnapshotExists reports whether snapshot id is materialized (readable and
// durable once the materializing CP has committed).
func (v *Volume) SnapshotExists(id uint64) bool {
	_, ok := v.snaps[id]
	return ok
}

// SnapshotByID returns the materialized snapshot id, or nil.
func (v *Volume) SnapshotByID(id uint64) *snap.Snapshot { return v.snaps[id] }

// Snapshots returns the materialized snapshots in ID order.
func (v *Volume) Snapshots() []*snap.Snapshot {
	out := make([]*snap.Snapshot, 0, len(v.snapOrder))
	for _, id := range v.snapOrder {
		out = append(out, v.snaps[id])
	}
	return out
}

// SnapshotIDs returns the materialized snapshot IDs in ascending order.
func (v *Volume) SnapshotIDs() []uint64 {
	return append([]uint64(nil), v.snapOrder...)
}

// DeleteSnapshot removes snapshot id from the namespace. A still-pending
// create is simply cancelled; a materialized snapshot becomes a zombie whose
// exclusively-held blocks the next CP reclaims. Idempotent; returns false if
// the snapshot does not exist, is the base of a bound or pending clone (the
// delete guard — split or delete the clones first), or is the target of a
// pending SnapRestore.
func (v *Volume) DeleteSnapshot(id uint64) bool {
	if v.cloneRefs[id] > 0 {
		return false
	}
	for _, r := range v.pendRestores {
		if r == id {
			return false
		}
	}
	for i, p := range v.pendSnaps {
		if p == id {
			v.pendSnaps = append(v.pendSnaps[:i], v.pendSnaps[i+1:]...)
			return true
		}
	}
	s, ok := v.snaps[id]
	if !ok {
		return false
	}
	delete(v.snaps, id)
	for i, sid := range v.snapOrder {
		if sid == id {
			v.snapOrder = append(v.snapOrder[:i], v.snapOrder[i+1:]...)
			break
		}
	}
	v.snapZombies = append(v.snapZombies, s)
	return true
}

// TakePendingSnapshots returns and clears the pending create list (CP
// freeze). The returned IDs are materialized later in the same CP.
func (v *Volume) TakePendingSnapshots() []uint64 {
	p := v.pendSnaps
	v.pendSnaps = nil
	return p
}

// TakeSnapZombies returns and clears the pending snapshot-zombie list (CP
// start).
func (v *Volume) TakeSnapZombies() []*snap.Snapshot {
	z := v.snapZombies
	v.snapZombies = nil
	return z
}

// SnapshotsQuiescent reports whether no snapshot work is outstanding (used
// by flush/quiesce convergence checks).
func (v *Volume) SnapshotsQuiescent() bool {
	return len(v.pendSnaps) == 0 && len(v.snapZombies) == 0
}

// MaterializeSnapshot captures snapshot id from the volume's current
// metafile content — the CP engine calls it after the frozen generation's
// activemap and inode-file updates are final, so the copies are exactly the
// committing CP's image. The snapmap is folded into the summary map. Returns
// the new snapshot and the number of metafile blocks copied (CPU charging).
func (v *Volume) MaterializeSnapshot(id, cpCount uint64) (*snap.Snapshot, int) {
	sm := v.aggr.newMetafile(snapMetaIno(id, 0), v.amapFile.Height())
	ic := v.aggr.newMetafile(snapMetaIno(id, 1), v.inofile.Height())
	copied := snap.CopyContent(sm, v.amapFile)
	copied += snap.CopyContent(ic, v.inofile)
	s := &snap.Snapshot{ID: id, CreateCP: cpCount, Snapmap: sm, InoCopy: ic}
	v.snaps[id] = s
	v.snapOrder = append(v.snapOrder, id)
	for i := len(v.snapOrder) - 1; i > 0 && v.snapOrder[i-1] > v.snapOrder[i]; i-- {
		v.snapOrder[i-1], v.snapOrder[i] = v.snapOrder[i], v.snapOrder[i-1]
	}
	v.Summary.OrFrom(sm)
	return s, copied
}

// ReclaimSnapshot applies the volume-local half of deleting a materialized
// snapshot: it diffs the victim's snapmap against the survivors and the
// active map, clears the summary bits nobody else holds, and returns the
// physical blocks now referenced by nothing — the exclusively-held user
// blocks (located through the container map) plus the snapshot's own
// snapmap/inocopy metafile trees. The caller frees the returned pvbns in the
// aggregate activemap. freedVVBNs counts user blocks fully reclaimed (their
// VVBNs return to the volume's allocatable pool by the summary clear alone:
// their active bits were already clear). walked is the scan cost in
// words/blocks for CPU charging.
//
// laterZombies are same-batch victims the caller has not processed yet: when
// one CP reclaims several snapshots, a block shared between two victims must
// be kept by the earlier pass and freed exactly once by the last holder, or
// the shared bits double-free. pvbns is valid until the next ReclaimSnapshot.
func (v *Volume) ReclaimSnapshot(s *snap.Snapshot, laterZombies []*snap.Snapshot) (pvbns []uint64, freedVVBNs int, walked int) {
	survivors := make([]*fs.File, 0, len(v.snapOrder)+len(laterZombies)+len(v.snapZombies))
	for _, id := range v.snapOrder {
		survivors = append(survivors, v.snaps[id].Snapmap)
	}
	for _, z := range laterZombies {
		survivors = append(survivors, z.Snapmap)
	}
	for _, z := range v.snapZombies {
		// Deleted after the running CP took its zombie batch (the CP thread
		// yields mid-phase): still summary-held, reclaimed by a later CP.
		// Treat as a survivor so a shared bit is cleared exactly once, by
		// its last holder.
		survivors = append(survivors, z.Snapmap)
	}
	if v.cl != nil {
		// A clone's base map holds its shared VVBNs in the summary exactly
		// like a snapshot would — and their physical homes belong to the
		// parent, so a clone-local snapshot delete must never free them.
		survivors = append(survivors, v.cl.BaseFile)
	}
	sumClear, fullFree, words := snap.ReclaimSets(v.sumClear[:0], v.fullFree[:0], s.Snapmap, survivors, v.amapFile, v.vvbnBlocks)
	v.sumClear, v.fullFree, pvbns = sumClear, fullFree, v.reclaimed[:0]
	// Capture physical homes before clearing summary bits: a cleared bit
	// makes its VVBN allocatable again, after which the container entry may
	// be overwritten by a new binding.
	for _, bn := range fullFree {
		if pvbn := v.Container(block.VVBN(bn)); pvbn != 0 && pvbn != block.InvalidVBN {
			pvbns = append(pvbns, uint64(pvbn))
		}
	}
	for _, bn := range sumClear {
		v.Summary.Clear(bn)
	}
	p1, _, w1 := v.ZombieBlocks(s.Snapmap)
	p2, _, w2 := v.ZombieBlocks(s.InoCopy)
	pvbns = append(pvbns, p1...)
	pvbns = append(pvbns, p2...)
	v.reclaimed = pvbns
	return pvbns, len(fullFree), words/512 + w1 + w2
}

// WriteSnapdirEntries rewrites the snapdir content from the live snapshot
// set, zeroing slots vacated by deletes, dirtying touched blocks into the
// running CP. The CP engine calls it after the snapshots' own metafiles are
// cleaned (their records must hold final root pointers).
func (v *Volume) WriteSnapdirEntries() {
	slot := 0
	touch := func(fn func(d []byte)) {
		fbn := block.FBN(slot / snap.EntriesPerBlock)
		buf := v.snapdir.GetOrCreateL0(fbn)
		d := buf.CPMutableData()
		fn(d[(slot%snap.EntriesPerBlock)*snap.EntrySize:])
		v.snapdir.DirtyIntoCP(buf)
	}
	for _, id := range v.snapOrder {
		s := v.snaps[id]
		touch(func(d []byte) { s.EncodeEntry(d) })
		slot++
	}
	for _, s := range v.snapZombies {
		// Deleted after the running CP took its zombie batch: reclamation
		// belongs to a later CP, so the committed image must keep the
		// snapshot fully alive — entry and summary bits leave the media
		// image together, in the CP that reclaims it. Dropping the entry
		// now would commit ownerless summary bits, and after a crash the
		// replayed delete would find nothing to reclaim them.
		touch(func(d []byte) { s.EncodeEntry(d) })
		slot++
	}
	written := slot
	for ; slot < v.snapSlots; slot++ {
		touch(func(d []byte) {
			for i := range d[:snap.EntrySize] {
				d[i] = 0
			}
		})
	}
	v.snapSlots = written
}

// SnapReadBlock reads FBN fbn of inode ino from snapshot snapID's frozen
// image, walking the committed media image (snapshot trees live only on
// media). Every block the walk loads is a media read (readVBN), timed when t
// is non-nil.
// ok=false means the snapshot or the inode does not exist in it; a nil data
// with ok=true is a hole in the frozen image.
func (v *Volume) SnapReadBlock(t *sim.Thread, snapID, ino uint64, fbn block.FBN) (img block.Image, ok bool) {
	s := v.snaps[snapID]
	if s == nil {
		return block.Image{}, false
	}
	rec, ok := snap.RecordAt(s.InoCopy, ino)
	if !ok {
		return block.Image{}, false
	}
	return fs.ReadTree(func(vbn block.VBN) block.Image { return v.aggr.readVBN(t, vbn) }, rec, fbn), true
}

// SummaryHeld reports whether vvbn is held by at least one snapshot.
func (v *Volume) SummaryHeld(vvbn uint64) bool { return v.Summary.IsSet(vvbn) }
