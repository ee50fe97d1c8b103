package aggregate

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/clone"
	"wafl/internal/fs"
	"wafl/internal/sim"
	"wafl/internal/snap"
)

// VolEntrySize is the on-disk size of a volume-table entry: a header plus
// the records of the volume's five metafiles (inode file, container map,
// activemap, snapdir, snapshot summary map).
const VolEntrySize = 512

// VolEntriesPerBlock is the number of volume entries per volume-table block.
const VolEntriesPerBlock = block.Size / VolEntrySize

// ContainerEntriesPerBlock is the number of vvbn->pvbn map entries per
// container-file block. It is fixed, not Size/AddrSize: the VVBNs a block
// covers decide which blocks a CP dirties. An entry is a 32-bit PVBN
// (block.PutAddr), so a container block's image is half a block, the
// container file's L0 length (fs.File.SetL0Len).
const (
	ContainerEntriesPerBlock = 512
	containerL0Len           = ContainerEntriesPerBlock * block.AddrSize
)

// Well-known per-volume metafile inode numbers (user files start at
// FirstUserIno).
const (
	inoVolInofile   = 1
	inoVolContainer = 2
	inoVolActivemap = 3
	inoVolSnapdir   = 4
	inoVolSummary   = 5
	inoVolBasemap   = 6 // clone base map (bound clones only)
	// FirstUserIno is the first inode number handed to user files.
	FirstUserIno = 16
)

// snapMetaIno synthesizes inode numbers for a snapshot's private metafiles
// (snapmap, inocopy). They live outside the inode file — their records are
// held by snapdir entries — so the numbers only matter for debugging and
// fsck labels.
func snapMetaIno(snapID uint64, which uint64) uint64 {
	return 1<<32 + snapID*2 + which
}

// Volume is a FlexVol: a virtual VVBN block space inside the aggregate,
// with its own activemap, container map (vvbn->pvbn), and inode file. All
// volume metafiles are physical-only files (VBN addressed); user file
// blocks are dual-addressed (VVBN + VBN).
type Volume struct {
	id         int
	aggr       *Aggregate
	vvbnBlocks uint64

	Activemap *bitmap.Activemap // VVBN allocation state
	amapFile  *fs.File
	container *fs.File
	inofile   *fs.File

	// FreeIdx is the hierarchical free-space accounting over Activemap and
	// Summary: per-vregion allocatable counts plus a free-words summary
	// bitmap, maintained incrementally from both maps' OnChange streams so
	// region selection and bucket fills never rescan full bitmap spans.
	FreeIdx *bitmap.Index

	// Snapshot state. Summary is the OR of all live snapmaps; the write
	// allocator consults it so snapshot-held VVBNs are never reused
	// (free = !active && !summary). snapdir persists the snapshot set.
	Summary     *bitmap.Activemap
	summaryFile *fs.File
	snapdir     *fs.File
	snaps       map[uint64]*snap.Snapshot
	snapOrder   []uint64 // live snapshot IDs, ascending (determinism)
	nextSnapID  uint64
	snapSlots   int // snapdir slots written on disk (for zeroing on shrink)

	// pendSnaps are requested snapshot creates awaiting the next CP freeze;
	// snapZombies are deleted snapshots awaiting CP-side reclamation.
	pendSnaps   []uint64
	snapZombies []*snap.Snapshot

	files   map[uint64]*fs.File
	nextIno uint64

	// dirty user files in the open generation, and inodes whose records
	// must be (re)written in the next CP even if no blocks are dirty
	// (fresh creates).
	dirty       map[uint64]*fs.File
	recordDirty map[uint64]*fs.File

	// zombies are deleted files awaiting space reclamation: WAFL defers
	// freeing a deleted file's blocks to consistency-point processing.
	// deleted guards against resurrecting an inode from its still-on-disk
	// record between the delete and the CP that clears it.
	zombies []*fs.File
	deleted map[uint64]bool
	// dropped are files whose trees left the namespace (deleted, or a
	// discarded present); the next CP's freeze releases their images
	// (File.Release), once the CP that may still clean them has committed.
	dropped []*fs.File

	// Clone/restore state (see internal/clone). cl is non-nil while the
	// volume is a bound writable clone; pendClone is a requested bind and
	// pendRestores are requested SnapRestores, both awaiting the next CP.
	// cloneRefs counts, per snapshot ID, the clones diverging from that
	// snapshot — the parent-snapshot delete guard, rebuilt on mount from
	// the clones' persisted parent links.
	// restoring holds the client gate closed between the CP freeze that
	// takes the pending restore list and the commit of the CP that applies
	// it — without it, a write slipping in after the apply but before the
	// commit would land in the NVRAM log *after* the restore record yet be
	// discarded by a crash-replayed restore, diverging the crash and
	// no-crash legs. pendSplit queues a split requested while the bind is
	// still pending (replay ordering).
	cl           *clone.State
	pendClone    *pendingClone
	pendSplit    bool
	pendRestores []uint64
	restoring    bool
	cloneRefs    map[uint64]int

	// Snapshot reclamation's arrays (ReclaimSnapshot, CompleteSplit), reused
	// from one delete to the next rather than allocated anew every CP.
	sumClear, fullFree, reclaimed []uint64
}

// AddVolume creates and formats a new volume of vvbnBlocks virtual blocks.
func (a *Aggregate) AddVolume(vvbnBlocks uint64) *Volume {
	v := &Volume{
		id:          len(a.vols),
		aggr:        a,
		vvbnBlocks:  vvbnBlocks,
		files:       make(map[uint64]*fs.File),
		nextIno:     FirstUserIno,
		dirty:       make(map[uint64]*fs.File),
		recordDirty: make(map[uint64]*fs.File),
		deleted:     make(map[uint64]bool),
		snaps:       make(map[uint64]*snap.Snapshot),
		nextSnapID:  1,
	}
	amapBlocks := (vvbnBlocks + bitmap.BitsPerBlock - 1) / bitmap.BitsPerBlock
	v.amapFile = a.newMetafile(inoVolActivemap, fs.HeightFor(amapBlocks+1))
	contBlocks := (vvbnBlocks + ContainerEntriesPerBlock - 1) / ContainerEntriesPerBlock
	v.container = a.newMetafile(inoVolContainer, fs.HeightFor(contBlocks+1))
	v.container.SetL0Len(containerL0Len)
	v.inofile = a.newMetafile(inoVolInofile, fs.HeightFor(1<<16))
	v.Activemap = bitmap.New(v.amapFile, vvbnBlocks)
	v.summaryFile = a.newMetafile(inoVolSummary, fs.HeightFor(amapBlocks+1))
	v.Summary = bitmap.New(v.summaryFile, vvbnBlocks)
	v.snapdir = a.newMetafile(inoVolSnapdir, fs.HeightFor(64))
	v.FreeIdx = bitmap.NewIndex(v.Activemap, v.Summary, bitmap.BitsPerBlock)
	a.vols = append(a.vols, v)
	return v
}

// ID returns the volume's index in the aggregate.
func (v *Volume) ID() int { return v.id }

// VVBNBlocks returns the size of the volume's virtual block space.
func (v *Volume) VVBNBlocks() uint64 { return v.vvbnBlocks }

// AmapFile returns the volume activemap's backing metafile.
func (v *Volume) AmapFile() *fs.File { return v.amapFile }

// ContainerFile returns the container-map metafile.
func (v *Volume) ContainerFile() *fs.File { return v.container }

// InoFile returns the inode-file metafile.
func (v *Volume) InoFile() *fs.File { return v.inofile }

// SnapdirFile returns the snapshot-directory metafile.
func (v *Volume) SnapdirFile() *fs.File { return v.snapdir }

// SummaryFile returns the snapshot summary map's backing metafile.
func (v *Volume) SummaryFile() *fs.File { return v.summaryFile }

// Metafiles returns the volume's permanent metafiles, in CP cleaning order.
// Snapshot snapmap/inocopy metafiles are not listed: they are written once
// by the materializing CP (which cleans them explicitly) and immutable
// afterwards. A bound clone's base map rides along: it mutates on COW
// divergence (bit clears) and during splits.
func (v *Volume) Metafiles() []*fs.File {
	mf := []*fs.File{v.inofile, v.container, v.amapFile, v.snapdir, v.summaryFile}
	if v.cl != nil {
		mf = append(mf, v.cl.BaseFile)
	}
	return mf
}

// SetContainer records that vvbn now lives at pvbn, dirtying the owning
// container block into the running CP. The infrastructure calls this while
// committing used volume buckets.
func (v *Volume) SetContainer(vvbn block.VVBN, pvbn block.VBN) {
	buf := v.container.GetOrCreateL0(block.FBN(uint64(vvbn) / ContainerEntriesPerBlock))
	block.PutAddr(buf.CPMutableData(), int(uint64(vvbn)%ContainerEntriesPerBlock), uint64(pvbn))
	v.container.DirtyIntoCP(buf)
}

// Container returns the physical location recorded for vvbn (0 if none).
func (v *Volume) Container(vvbn block.VVBN) block.VBN {
	buf := v.container.Buffer(0, block.FBN(uint64(vvbn)/ContainerEntriesPerBlock))
	if buf == nil {
		return 0
	}
	return block.VBN(block.GetAddr(buf.Data(), int(uint64(vvbn)%ContainerEntriesPerBlock)))
}

// CreateFile allocates a new user file able to hold maxBlocks blocks. The
// inode record is persisted in the next CP.
func (v *Volume) CreateFile(maxBlocks uint64) *fs.File { return v.CreateFileAt(0, maxBlocks) }

// CreateFileAt creates a file at inode number ino, or at the next unused
// number when ino is 0. With an explicit number it is the NVRAM replay path
// and must be idempotent: the create may already have been persisted by a CP
// that completed during the op, in which case the existing file is returned.
func (v *Volume) CreateFileAt(ino uint64, maxBlocks uint64) *fs.File {
	if ino == 0 {
		ino = v.nextIno
	}
	if ino >= v.nextIno {
		v.nextIno = ino + 1
	}
	if f := v.LookupFile(ino); f != nil {
		return f
	}
	f := v.aggr.own(fs.NewFile(ino, fs.HeightFor(maxBlocks)))
	v.files[ino] = f
	v.recordDirty[ino] = f
	return f
}

// DeleteFile removes a file: it disappears from the namespace immediately,
// its un-persisted dirty state is dropped, and the file becomes a zombie
// whose on-disk blocks are reclaimed by the next consistency point —
// WAFL's deferred deletion. Idempotent; returns false if the inode is not
// in use.
func (v *Volume) DeleteFile(ino uint64) bool {
	f := v.LookupFile(ino)
	if f == nil {
		return false
	}
	delete(v.files, ino)
	delete(v.dirty, ino)
	delete(v.recordDirty, ino)
	v.deleted[ino] = true
	v.zombies = append(v.zombies, f)
	v.dropped = append(v.dropped, f)
	return true
}

// TakeZombies returns and clears the pending zombie list (CP start).
func (v *Volume) TakeZombies() []*fs.File {
	z := v.zombies
	v.zombies = nil
	return z
}

// DeferZombie re-queues a zombie for the next CP. The engine defers a
// zombie whose file is frozen into the running CP: its tree is mid-clean,
// so the walkable on-media image (and the record the CP will write) only
// stabilizes when this CP commits.
func (v *Volume) DeferZombie(f *fs.File) {
	v.zombies = append(v.zombies, f)
}

// ZombieBlocks walks a zombie file's persisted tree on committed media and
// returns every physical block it occupies and every virtual block it
// holds in the volume's VVBN space. Blocks whose VVBN is held by a snapshot
// (summary map) keep their physical homes: the VVBN leaves the active map
// but the pvbn stays allocated until the last holding snapshot is deleted.
// The walk reads indirect blocks only; its cost is returned as a count of
// blocks visited for CPU charging.
func (v *Volume) ZombieBlocks(f *fs.File) (pvbns []uint64, vvbns []uint64, walked int) {
	f.Walk(func(level int, _ block.FBN, vvbn block.VVBN, vbn block.VBN) []byte {
		walked++
		if vvbn != block.InvalidVVBN {
			vvbns = append(vvbns, uint64(vvbn))
		}
		if vvbn == block.InvalidVVBN || !v.Summary.IsSet(uint64(vvbn)) {
			pvbns = append(pvbns, uint64(vbn))
		}
		if level == 0 {
			return nil
		}
		return v.aggr.ReadVBNRaw(vbn)
	})
	return pvbns, vvbns, walked
}

// ClearRecord wipes a deleted inode's record in the inode file (CP-side)
// and lifts the resurrection guard (the on-disk record is gone with this
// CP).
func (v *Volume) ClearRecord(ino uint64) {
	fbn, off := fs.RecordLocation(ino)
	buf := v.inofile.GetOrCreateL0(fbn)
	d := buf.CPMutableData()
	for i := 0; i < fs.RecordSize; i++ {
		d[off+i] = 0
	}
	v.inofile.DirtyIntoCP(buf)
	delete(v.deleted, ino)
}

// LookupFile returns the in-memory file for ino, loading its record from
// the inode file if needed (post-mount path). Returns nil if the inode is
// not in use.
func (v *Volume) LookupFile(ino uint64) *fs.File {
	if f, ok := v.files[ino]; ok {
		return f
	}
	if v.deleted[ino] {
		return nil
	}
	fbn, off := fs.RecordLocation(ino)
	buf := v.inofile.Buffer(0, fbn)
	if buf == nil {
		return nil
	}
	rec := fs.DecodeRecord(buf.Data()[off:])
	if rec.Flags&fs.FlagInUse == 0 || rec.Ino != ino {
		return nil
	}
	f, err := fs.FileFromRecord(rec)
	if err != nil {
		return nil // a record that describes no file is no inode
	}
	v.files[ino] = v.aggr.own(f)
	return f
}

// MarkDirty adds f to the volume's dirty-inode list for the next CP.
func (v *Volume) MarkDirty(f *fs.File) {
	v.dirty[f.Ino()] = f
}

// DirtyFiles returns the number of user files dirty in the open generation.
func (v *Volume) DirtyFiles() int { return len(v.dirty) }

// FreezeAll freezes every dirty user file for the starting CP and returns
// the frozen inode list (sorted by ino for determinism), built in out's
// array: the CP engine passes the list its last CP used. Files with only a
// record change (fresh creates) are included with zero frozen blocks. It
// first releases the dropped files' images: the CP that froze them last
// has committed.
func (v *Volume) FreezeAll(out []*fs.File) []*fs.File {
	for _, f := range v.dropped {
		f.Release()
	}
	v.dropped = v.dropped[:0]
	out = out[:0]
	for _, f := range v.dirty {
		f.Freeze()
		out = append(out, f)
	}
	for ino, f := range v.recordDirty {
		if _, ok := v.dirty[ino]; !ok {
			out = append(out, f)
		}
	}
	clear(v.dirty)
	clear(v.recordDirty)
	slices.SortFunc(out, func(a, b *fs.File) int { return cmp.Compare(a.Ino(), b.Ino()) })
	return out
}

// WriteRecord serializes f's current record into the inode file, dirtying
// the owning inofile block into the running CP. The CP engine calls this
// after f has been fully cleaned (so the root pointer is final).
func (v *Volume) WriteRecord(f *fs.File) {
	fbn, off := fs.RecordLocation(f.Ino())
	buf := v.inofile.GetOrCreateL0(fbn)
	d := buf.CPMutableData()
	fs.EncodeRecord(d[off:], f.RecordOf(0))
	v.inofile.DirtyIntoCP(buf)
}

// EnsureL0Resident loads f's L0 fbn ahead of an overwrite if the tree does
// not hold it (File.Resident): a block on committed media is read untimed
// through the fault plan, its path's indirects load, and it is held, so
// cleaning the overwrite frees the committed address its resident L1 names
// instead of leaking it. A held block needs nothing: its L1 already names
// it. No-op for a hole. The caller overwrites the block at once.
func (v *Volume) EnsureL0Resident(f *fs.File, fbn block.FBN) {
	if f.RootVBN == block.InvalidVBN || f.Resident(fbn) {
		return
	}
	if img, _, _ := v.readL0(nil, f, fbn); !img.IsNil() {
		f.Hold(fbn)
	}
}

// ReadBlock returns the content of f's block fbn, nil for a hole, and makes
// nothing resident: the member's residency set decides what a client read
// pays, and its caller keeps it. The indirect blocks of the path load
// untimed (File.Resolve). With t, the read is a client's that missed the
// set: a timed media read at the block's committed address. Without, it is
// untimed: a block in memory (File.L0) reads its slot; one the tree holds
// (File.Resident) reads its media image through its resident L1, past the
// fault plan, as memory would. Every other read, timed or not, is a media
// read (readVBN): the fault plan, one retry, then reconstruction.
//
// The tree names a block's new location as soon as the running CP cleans
// it, so a timed read may find nothing there yet: its write has not landed.
// The slot, which keeps the image until that CP commits, holds the content
// then. Nothing at a committed location is a lost block.
func (v *Volume) ReadBlock(t *sim.Thread, f *fs.File, fbn block.FBN) block.Image {
	img, _, _ := v.readL0(t, f, fbn)
	return img
}

// readL0 is ReadBlock, with the address the content was read at: none for
// a block read from its slot.
func (v *Volume) readL0(t *sim.Thread, f *fs.File, fbn block.FBN) (img block.Image, vvbn block.VVBN, vbn block.VBN) {
	live, inMemory := f.L0(fbn)
	if inMemory && t == nil {
		return live, block.InvalidVVBN, block.InvalidVBN
	}
	vvbn, vbn, ok := f.Resolve(fbn, v.aggr)
	switch {
	case !ok:
		return block.Image{}, vvbn, vbn
	case t == nil && f.Resident(fbn):
		g, d, dbn := v.aggr.geo.Locate(vbn)
		img = v.aggr.groups[g].Drive(d).Image(dbn)
	default:
		img = v.aggr.readVBN(t, vbn)
	}
	if img.IsNil() && (!inMemory || !v.aggr.inCP) {
		panic(fmt.Sprintf("volume %d: ino %d L0 fbn %d at %v unreadable", v.id, f.Ino(), fbn, vbn))
	}
	return img, vvbn, vbn
}

// NextIno returns the next inode number to be assigned (persisted in the
// volume-table entry).
func (v *Volume) NextIno() uint64 { return v.nextIno }

// encodeEntry serializes the volume's persistent state into a volume-table
// entry.
func (v *Volume) encodeEntry(dst []byte) {
	for i := range dst[:VolEntrySize] {
		dst[i] = 0
	}
	binary.LittleEndian.PutUint64(dst[0:], uint64(v.id))
	binary.LittleEndian.PutUint64(dst[8:], v.vvbnBlocks)
	binary.LittleEndian.PutUint64(dst[16:], v.nextIno)
	binary.LittleEndian.PutUint32(dst[24:], 1) // in use
	binary.LittleEndian.PutUint64(dst[32:], v.nextSnapID)
	// Unreclaimed zombies stay on media as live snapshots (see
	// WriteSnapdirEntries); the persisted count covers them too.
	binary.LittleEndian.PutUint32(dst[40:], uint32(len(v.snapOrder)+len(v.snapZombies)))
	fs.EncodeRecord(dst[64:], v.inofile.RecordOf(fs.FlagMetafile))
	fs.EncodeRecord(dst[128:], v.container.RecordOf(fs.FlagMetafile))
	fs.EncodeRecord(dst[192:], v.amapFile.RecordOf(fs.FlagMetafile))
	fs.EncodeRecord(dst[256:], v.snapdir.RecordOf(fs.FlagMetafile))
	fs.EncodeRecord(dst[320:], v.summaryFile.RecordOf(fs.FlagMetafile))
	if v.cl != nil {
		// Clone header + base map record land in the entry's spare bytes;
		// they are all-zero for non-clones, keeping clone-free file systems
		// bit-identical to the pre-clone entry format.
		v.cl.Encode(dst)
	}
}

// WriteVolumeEntries serializes every volume's entry into the volume table,
// dirtying the affected blocks into the running CP. Called by the CP engine
// after volume metafiles are cleaned.
func (a *Aggregate) WriteVolumeEntries() {
	for _, v := range a.vols {
		fbn := block.FBN(v.id / VolEntriesPerBlock)
		buf := a.volTable.GetOrCreateL0(fbn)
		d := buf.CPMutableData()
		off := (v.id % VolEntriesPerBlock) * VolEntrySize
		v.encodeEntry(d[off:])
		a.volTable.DirtyIntoCP(buf)
	}
}

// decodeVolume rebuilds a volume skeleton from its table entry (mount
// path), eagerly loading its metafiles and rebinding the activemap. src may
// be short: bytes past its end read as zero. A damaged entry is an error.
func (a *Aggregate) decodeVolume(src []byte) (*Volume, error) {
	var e [VolEntrySize]byte
	copy(e[:], src)
	if binary.LittleEndian.Uint32(e[24:]) == 0 {
		return nil, fmt.Errorf("entry not in use")
	}
	v := &Volume{
		id:          int(binary.LittleEndian.Uint64(e[0:])),
		aggr:        a,
		vvbnBlocks:  binary.LittleEndian.Uint64(e[8:]),
		nextIno:     binary.LittleEndian.Uint64(e[16:]),
		files:       make(map[uint64]*fs.File),
		dirty:       make(map[uint64]*fs.File),
		recordDirty: make(map[uint64]*fs.File),
		deleted:     make(map[uint64]bool),
		snaps:       make(map[uint64]*snap.Snapshot),
		nextSnapID:  binary.LittleEndian.Uint64(e[32:]),
	}
	snapCount := int(binary.LittleEndian.Uint32(e[40:]))
	// The five metafile records, at encodeEntry's 64-byte stride.
	var err error
	for i, f := range []**fs.File{&v.inofile, &v.container, &v.amapFile, &v.snapdir, &v.summaryFile} {
		if *f, err = fs.DecodeMetafile(e[64*(i+1):]); err != nil {
			return nil, err
		}
	}
	v.container.SetL0Len(containerL0Len)
	if err := a.loadAll(v.inofile, v.container, v.amapFile, v.snapdir, v.summaryFile); err != nil {
		return nil, err
	}
	if v.Activemap, err = rebind(v.amapFile, v.vvbnBlocks); err != nil {
		return nil, err
	}
	if v.Summary, err = rebind(v.summaryFile, v.vvbnBlocks); err != nil {
		return nil, err
	}
	v.FreeIdx = bitmap.NewIndex(v.Activemap, v.Summary, bitmap.BitsPerBlock)
	// Rebuild the snapshot set from the snapdir content.
	for slot := 0; slot < snapCount; slot++ {
		buf := v.snapdir.Buffer(0, block.FBN(slot/snap.EntriesPerBlock))
		if buf == nil {
			return nil, fmt.Errorf("snapdir slot %d not on media", slot)
		}
		s, err := snap.DecodeEntry(buf.Data()[(slot%snap.EntriesPerBlock)*snap.EntrySize:])
		if err != nil {
			return nil, fmt.Errorf("snapdir slot %d: %w", slot, err)
		}
		if s == nil {
			return nil, fmt.Errorf("snapdir slot %d empty, want %d snapshots", slot, snapCount)
		}
		if err := a.loadAll(s.Snapmap, s.InoCopy); err != nil {
			return nil, err
		}
		v.snaps[s.ID] = s
		v.snapOrder = append(v.snapOrder, s.ID)
	}
	// Zombie entries are written after the live ones, so slot order is not
	// necessarily ID order; restore the ascending invariant.
	for i := 1; i < len(v.snapOrder); i++ {
		for j := i; j > 0 && v.snapOrder[j-1] > v.snapOrder[j]; j-- {
			v.snapOrder[j-1], v.snapOrder[j] = v.snapOrder[j], v.snapOrder[j-1]
		}
	}
	v.snapSlots = snapCount
	if v.nextSnapID == 0 {
		v.nextSnapID = 1
	}
	st, err := clone.Decode(e[:])
	if err != nil {
		return nil, fmt.Errorf("clone base map: %w", err)
	}
	if st != nil {
		if err := a.loadAll(st.BaseFile); err != nil {
			return nil, err
		}
		if st.Base, err = rebind(st.BaseFile, v.vvbnBlocks); err != nil {
			return nil, err
		}
		if st.Splitting {
			st.SplitIno = FirstUserIno
		}
		v.cl = st
	}
	return v, nil
}

// rebuildCloneGuards recomputes every volume's parent-snapshot delete
// guard from the bound clones' persisted parent links (mount path). A link
// to a volume the table does not hold is damage, an error.
func (a *Aggregate) rebuildCloneGuards() error {
	for vi, v := range a.vols {
		if v.cl == nil {
			continue
		}
		if p := v.cl.ParentVol; p < 0 || p >= len(a.vols) {
			return fmt.Errorf("volume %d: clone parent volume %d outside the table of %d", vi, p, len(a.vols))
		}
		a.vols[v.cl.ParentVol].AddCloneRef(v.cl.ParentSnap)
	}
	return nil
}
