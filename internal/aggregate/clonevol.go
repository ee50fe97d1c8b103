package aggregate

import (
	"fmt"
	"slices"

	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/clone"
	"wafl/internal/fs"
	"wafl/internal/snap"
)

// Volume-side clone and SnapRestore lifecycle. Both follow the snapshot
// two-step protocol: the client-facing request only queues (and is what the
// NVRAM log records); the CP engine applies the operation at a phase
// boundary so the transition is atomic with a committed CP. While a restore
// is pending the volume is gated — clients stall new operations — so the
// NVRAM log never holds records that straddle an unapplied restore.

// pendingClone is a requested clone bind awaiting CP materialization.
type pendingClone struct {
	parentVol  int
	parentSnap uint64
}

// IsClone reports whether the volume is a bound writable clone.
func (v *Volume) IsClone() bool { return v.cl != nil }

// CloneState returns the clone state, or nil for a non-clone.
func (v *Volume) CloneState() *clone.State { return v.cl }

// ClonePending reports whether a bind request awaits the next CP.
func (v *Volume) ClonePending() bool { return v.pendClone != nil }

// CloneSplitting reports whether a split is in progress.
func (v *Volume) CloneSplitting() bool { return v.cl != nil && v.cl.Splitting }

// CloneSlotFree reports whether this volume can become a clone: never
// written, not bound, no bind pending.
func (v *Volume) CloneSlotFree() bool {
	return v.cl == nil && v.pendClone == nil && v.nextIno == FirstUserIno &&
		len(v.snaps) == 0 && v.Activemap.Used() == 0
}

// RequestCloneBind queues binding this volume as a writable clone of parent
// snapshot (parentVol, parentSnap) at the next CP, and reports whether it
// did: the caller then takes the parent delete guard (AddCloneRef), once.
// Idempotent for the NVRAM replay path: a slot whose bind is already pending
// or materialized queues nothing and returns false (a materialized bind's
// guard was rebuilt by the mount).
func (v *Volume) RequestCloneBind(parentVol int, parentSnap uint64) bool {
	if v.cl != nil || v.pendClone != nil {
		return false
	}
	v.pendClone = &pendingClone{parentVol: parentVol, parentSnap: parentSnap}
	return true
}

// MaterializeClone binds the clone from the parent snapshot's frozen image
// (CP phase 1b): activemap := snapmap, inode file := inocopy, container
// entries copied for every shared VVBN, and the shared set recorded in the
// base map metafile and folded into the summary map — from then on the
// ordinary cleaner/zombie paths treat base blocks exactly like
// snapshot-held blocks, which is what makes COW divergence free. Returns
// the newly activated bit count (the caller debits the volume free counter)
// and the metafile blocks copied, for CPU charging.
func (v *Volume) MaterializeClone(p *Volume) (activated uint64, copied int) {
	req := v.pendClone
	v.pendClone = nil
	s := p.snaps[req.parentSnap]
	if s == nil {
		panic(fmt.Sprintf("volume %d: clone bind of vol %d snap %d: snapshot gone despite delete guard",
			v.id, req.parentVol, req.parentSnap))
	}
	// Active map := snapmap content. OrFrom degenerates to an exact copy on
	// the empty slot map and fires OnChange per bit, keeping the free-space
	// index and the infrastructure's pending-free observers honest.
	activated = v.Activemap.OrFrom(s.Snapmap)
	bf := v.aggr.newMetafile(inoVolBasemap, v.amapFile.Height())
	copied = snap.CopyContent(bf, s.Snapmap)
	base := bitmap.Rebind(bf, v.vvbnBlocks)
	// Summary hold: base VVBNs must never have their (parent-owned)
	// physical homes freed or container bindings reused by clone-side
	// cleaning and deletion.
	v.Summary.OrFrom(bf)
	// Shared VVBNs resolve through the clone's own container map.
	base.ForEachSet(func(bn uint64) {
		v.SetContainer(block.VVBN(bn), p.Container(block.VVBN(bn)))
	})
	copied += snap.ReplaceContent(v.inofile, s.InoCopy)
	if p.nextIno > v.nextIno {
		// Covers every inode in the inocopy image (parent inos only grow).
		v.nextIno = p.nextIno
	}
	v.cl = &clone.State{
		ParentVol:  p.id,
		ParentSnap: req.parentSnap,
		Base:       base,
		BaseFile:   bf,
	}
	if v.pendSplit {
		v.pendSplit = false
		v.cl.Splitting = true
		v.cl.SplitIno = FirstUserIno
		v.cl.SplitFBN = 0
	}
	return activated, copied
}

// ClonePendingInfo returns the queued bind's target. Valid only while
// ClonePending reports true.
func (v *Volume) ClonePendingInfo() (parentVol int, parentSnap uint64) {
	return v.pendClone.parentVol, v.pendClone.parentSnap
}

// AddCloneRef takes the delete guard on snapshot id for a (pending or
// bound) clone.
func (v *Volume) AddCloneRef(id uint64) {
	if v.cloneRefs == nil {
		v.cloneRefs = make(map[uint64]int)
	}
	v.cloneRefs[id]++
}

// DropCloneRef releases one delete-guard hold on snapshot id.
func (v *Volume) DropCloneRef(id uint64) {
	if v.cloneRefs[id] <= 1 {
		delete(v.cloneRefs, id)
		return
	}
	v.cloneRefs[id]--
}

// StartSplit (idempotently) begins splitting the clone from its parent:
// each CP rewrites a bounded batch of still-live base blocks through the
// normal COW write path until none remain, then the base holds and the
// parent delete guard drop. A split requested while the bind is still
// pending (the NVRAM replay path: the clone-create record precedes the
// split record, and neither has materialized yet) is queued and starts when
// the bind does. Returns false if the volume is neither a bound nor a
// pending clone (replay after a completed split is a no-op).
func (v *Volume) StartSplit() bool {
	if v.cl == nil {
		if v.pendClone != nil {
			v.pendSplit = true
			return true
		}
		return false
	}
	if !v.cl.Splitting {
		v.cl.Splitting = true
		v.cl.SplitIno = FirstUserIno
		v.cl.SplitFBN = 0
	}
	return true
}

// SplitStep rewrites up to batch still-live base L0 blocks with their own
// content, dirtying them into the open generation so the next CP's cleaner
// assigns each a fresh VVBN and physical home — block-copy divergence
// through the exact machinery ordinary overwrites use. Each is written as
// the parent's image by value: a name, or the media's immutable array, which
// no pool takes back (DESIGN §14). Resumes at the
// persisted-state-free (SplitIno, SplitFBN) cursor and wraps at the end of
// a pass. Returns blocks queued for copy and the scan cost in blocks.
func (v *Volume) SplitStep(batch int) (copied, walked int) {
	st := v.cl
	for copied < batch {
		if st.SplitIno >= v.nextIno {
			st.SplitIno = FirstUserIno
			st.SplitFBN = 0
			break // pass complete; LiveBase decides whether more are needed
		}
		f := v.LookupFile(st.SplitIno)
		if f == nil {
			st.SplitIno++
			st.SplitFBN = 0
			continue
		}
		for st.SplitFBN < f.Size() && copied < batch {
			fbn := st.SplitFBN
			st.SplitFBN++
			walked++
			if _, ok := f.L0(fbn); ok {
				continue // dirty: already diverging through a pending clean
			}
			img, vvbn, _ := v.readL0(nil, f, fbn)
			if img.IsNil() {
				continue // hole
			}
			f.Hold(fbn)
			if vvbn == block.InvalidVVBN || !st.Base.IsSet(uint64(vvbn)) ||
				!v.Activemap.IsSet(uint64(vvbn)) {
				continue // clone-owned or already diverged
			}
			f.WriteImage(fbn, img)
			v.MarkDirty(f)
			copied++
		}
		if st.SplitFBN >= f.Size() {
			st.SplitIno++
			st.SplitFBN = 0
		}
	}
	return copied, walked
}

// CloneLiveBase returns the number of base blocks still live in the active
// map — the split's remaining block-copy work. Zero for a non-clone.
func (v *Volume) CloneLiveBase() uint64 {
	if v.cl == nil {
		return 0
	}
	return v.cl.LiveBase(v.amapFile, v.vvbnBlocks)
}

// CompleteSplit drops the parent holds once no base block is live in the
// active map: base bits held by no clone-local snapshot leave the summary
// map and become allocatable VVBNs (their parent-owned physical homes are
// NOT freed — the parent keeps them). If the clone's own snapshots still
// hold base bits the split stays in a draining state until those snapshots
// are deleted. On full completion the base map metafile's blocks are
// returned (the caller frees them in the aggregate and drops the parent
// delete guard). freedAlloc is the VVBN count newly allocatable.
func (v *Volume) CompleteSplit() (basePvbns []uint64, freedAlloc int, walked int, done bool) {
	st := v.cl
	survivors := make([]*fs.File, 0, len(v.snapOrder)+len(v.snapZombies))
	for _, id := range v.snapOrder {
		survivors = append(survivors, v.snaps[id].Snapmap)
	}
	for _, z := range v.snapZombies {
		survivors = append(survivors, z.Snapmap)
	}
	sumClear, fullFree, words := snap.ReclaimSets(v.sumClear[:0], v.fullFree[:0], st.BaseFile, survivors, v.amapFile, v.vvbnBlocks)
	v.sumClear, v.fullFree = sumClear, fullFree
	if len(sumClear) != len(fullFree) {
		panic(fmt.Sprintf("volume %d: split completion with live base blocks", v.id))
	}
	for _, bn := range sumClear {
		v.Summary.Clear(bn)
		st.Base.Clear(bn)
	}
	if st.Base.Used() > 0 {
		// Clone-local snapshots still hold base bits: their frozen images
		// reference parent-owned physical homes, so the guard must outlive
		// them. Drain until those snapshots die.
		return nil, len(fullFree), words / 512, false
	}
	p, _, w := v.ZombieBlocks(st.BaseFile)
	v.cl = nil
	return p, len(fullFree), words/512 + w, true
}

// RequestRestore queues reverting the volume to snapshot id at the next CP
// and immediately discards all volatile state — the restore supersedes
// every uncommitted change, and client operations are gated until the
// restore is applied and committed. Accepts a still-pending snapshot create
// as the target (the CP engine defers the restore until the target
// materializes). Returns false if the snapshot does not exist. NVRAM replay
// takes the same path: the snapshot's create record precedes the restore
// record in the log, so the target is materialized or pending by then.
func (v *Volume) RequestRestore(id uint64) bool {
	if !v.SnapshotExists(id) && !slices.Contains(v.pendSnaps, id) {
		return false
	}
	v.DiscardVolatile()
	v.pendRestores = append(v.pendRestores, id)
	return true
}

// RestorePending reports whether an unapplied or uncommitted restore gates
// the volume: true from the request until the CP that applied the restore
// commits. Client operations stall on it, which is what keeps the NVRAM
// log free of records straddling an unapplied restore.
func (v *Volume) RestorePending() bool { return len(v.pendRestores) > 0 || v.restoring }

// RestoreQueued reports whether a restore request awaits the next CP freeze:
// volatile state is already discarded, the image not yet replaced.
func (v *Volume) RestoreQueued() bool { return len(v.pendRestores) > 0 }

// TakePendingRestores returns and clears the pending restore list (CP
// freeze). Order is request order. The gate stays closed (RestorePending
// remains true) until FinishRestore, called by the engine after the
// applying CP commits.
func (v *Volume) TakePendingRestores() []uint64 {
	p := v.pendRestores
	v.pendRestores = nil
	if len(p) > 0 {
		v.restoring = true
	}
	return p
}

// FinishRestore reopens the client gate — the CP that applied the taken
// restores has committed.
func (v *Volume) FinishRestore() { v.restoring = false }

// DeferRestore re-queues restores whose target snapshot has not
// materialized yet (created and restored within one NVRAM window); the
// volume stays gated and the next CP applies them.
func (v *Volume) DeferRestore(ids []uint64) {
	v.pendRestores = append(ids, v.pendRestores...)
}

// DiscardVolatile drops every un-persisted change: open files, dirty and
// record-dirty sets, file zombies, and resurrection guards. Called when a
// restore is requested or replayed — the snapshot image supersedes them
// all. Blocks of dropped zombies are reclaimed by the restore's bitmap
// diff (their active bits are still set), and dropped inode records are
// wiped wholesale when the inocopy image replaces the inode file.
func (v *Volume) DiscardVolatile() {
	for _, f := range v.files {
		v.dropped = append(v.dropped, f)
	}
	v.files = make(map[uint64]*fs.File)
	v.dirty = make(map[uint64]*fs.File)
	v.recordDirty = make(map[uint64]*fs.File)
	v.deleted = make(map[uint64]bool)
	v.zombies = nil
}

// ApplyRestore rebinds the volume to snapshot s (CP phase 1b): the active
// map converges on the snapmap content through a word-wise diff — blocks
// only the discarded present held are freed (unless summary-held), blocks
// the snapshot holds re-enter the active set — and the inode file content
// becomes the inocopy image. O(metadata): bitmap words plus inode-file
// blocks, never data blocks. Returns the physical blocks to free in the
// aggregate, the VVBNs returned to the allocatable pool, and the scan cost
// in blocks.
func (v *Volume) ApplyRestore(s *snap.Snapshot) (pvbns []uint64, freedAlloc int, walked int) {
	v.DiscardVolatile()
	words := v.Activemap.ForEachDiff(s.Snapmap, func(bn uint64, inSrc bool) {
		if inSrc {
			// Re-entering the active set. The bit is summary-held (the
			// target snapshot holds it), so it was not allocatable before:
			// no free-counter movement.
			v.Activemap.Set(bn)
			return
		}
		if !v.Summary.IsSet(bn) {
			if pvbn := v.Container(block.VVBN(bn)); pvbn != 0 && pvbn != block.InvalidVBN {
				pvbns = append(pvbns, uint64(pvbn))
			}
			freedAlloc++
		}
		v.Activemap.Clear(bn)
	})
	copied := snap.ReplaceContent(v.inofile, s.InoCopy)
	return pvbns, freedAlloc, words/512 + copied
}

// CloneRestoreQuiescent reports whether no clone or restore work is
// outstanding (flush/quiesce convergence; a draining split — waiting only
// on clone-local snapshot deletes — does not block quiescence, since no CP
// can progress it).
func (v *Volume) CloneRestoreQuiescent() bool {
	if len(v.pendRestores) > 0 || v.restoring || v.pendClone != nil {
		return false
	}
	if v.cl != nil && v.cl.Splitting {
		// Still converging while base blocks are live; once only
		// snapshot-held base bits remain, user action (snapshot delete) is
		// needed and quiesce must not spin.
		return v.cl.LiveBase(v.amapFile, v.vvbnBlocks) == 0
	}
	return true
}
