// Package clone implements the volume-side state of writable clones
// (FlexClone-style) and instant SnapRestore on top of the snapshot layer's
// summary-map invariant (free = !active && !summary).
//
// A clone is a volume bound to a parent snapshot on the same member: its
// activemap, inode file, and container map start as copies of the parent
// snapshot's snapmap/inocopy/container content, so the clone shares every
// base block's physical home with the parent. The shared VVBNs are recorded
// in a dedicated base map metafile AND folded into the clone's summary map:
// the ordinary cleaner/zombie paths then already do the right thing on
// copy-on-first-write divergence — the old VVBN leaves the clone's active
// map but its summary hold keeps the parent-owned physical block from being
// freed or its container binding reused. The parent snapshot cannot be
// deleted while clones reference it (a delete guard replaces per-block
// reference counts); a clone split rewrites every still-live base block
// through the normal write path, in bounded per-CP batches, until no live
// base blocks remain, then drops the base holds and the guard.
//
// SnapRestore rebinds a volume to one of its snapshots without copying data
// blocks: the active map converges on the snapmap content through a
// word-wise diff (freeing blocks only the discarded present held), and the
// inode file content is replaced by the inocopy image. Both operations are
// requested by clients, NVRAM-logged, and applied atomically inside a
// consistency point by the CP engine; this package holds the pure state and
// serialization shared by the aggregate, the facade, and fsck.
package clone

import (
	"encoding/binary"

	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/fs"
)

// Volume-table entry layout owned by this package: the clone header lives in
// the spare bytes after the snapshot count (offset 40..43), and the base map
// metafile record occupies the spare record slot after the summary map's.
// All bytes are zero for a non-clone volume, so a clone-free file system's
// entries are bit-identical to the pre-clone format.
const (
	flagsOff      = 44  // u32: bit0 = bound clone, bit1 = split in progress
	parentVolOff  = 48  // u64: parent volume's member-local index
	parentSnapOff = 56  // u64: parent snapshot ID
	baseRecordOff = 384 // 64-byte record of the base map metafile

	flagClone     = 1 << 0
	flagSplitting = 1 << 1
)

// State is the clone-specific state of a bound clone volume. A nil *State
// means the volume is not a clone.
type State struct {
	ParentVol  int    // member-local index of the parent volume
	ParentSnap uint64 // parent snapshot the clone diverges from

	// Base marks the VVBNs whose physical homes are owned by the parent
	// snapshot (shared at bind, cleared only when the clone is split). Its
	// content is also folded into the volume's summary map; fsck checks
	// summary == OR(snapmaps) | base for clones.
	Base     *bitmap.Activemap
	BaseFile *fs.File

	// Splitting marks an in-progress split: each CP rewrites a bounded
	// batch of still-live base blocks through the normal COW write path,
	// resuming at the (SplitIno, SplitFBN) cursor.
	Splitting bool
	SplitIno  uint64
	SplitFBN  block.FBN
}

// Encode serializes the clone header and base map record into a volume-table
// entry (the caller has already zeroed it).
func (st *State) Encode(entry []byte) {
	flags := uint32(flagClone)
	if st.Splitting {
		flags |= flagSplitting
	}
	binary.LittleEndian.PutUint32(entry[flagsOff:], flags)
	binary.LittleEndian.PutUint64(entry[parentVolOff:], uint64(st.ParentVol))
	binary.LittleEndian.PutUint64(entry[parentSnapOff:], st.ParentSnap)
	fs.EncodeRecord(entry[baseRecordOff:], st.BaseFile.RecordOf(fs.FlagMetafile))
}

// Decode rebuilds the clone state skeleton from a volume-table entry, or
// returns nil for a non-clone volume, and an error for a base map record no
// file can have. entry may be short: bytes past its end read as zero. The
// caller loads the base map metafile from media and rebinds Base.
func Decode(entry []byte) (*State, error) {
	var e [baseRecordOff + fs.RecordSize]byte
	copy(e[:], entry)
	flags := binary.LittleEndian.Uint32(e[flagsOff:])
	if flags&flagClone == 0 {
		return nil, nil
	}
	base, err := fs.DecodeMetafile(e[baseRecordOff:])
	if err != nil {
		return nil, err
	}
	return &State{
		ParentVol:  int(binary.LittleEndian.Uint64(e[parentVolOff:])),
		ParentSnap: binary.LittleEndian.Uint64(e[parentSnapOff:]),
		Splitting:  flags&flagSplitting != 0,
		BaseFile:   base,
	}, nil
}

// Held returns the number of VVBNs still held by the parent snapshot on the
// clone's behalf (clone-held blocks in space accounting).
func (st *State) Held() uint64 {
	if st == nil {
		return 0
	}
	return st.Base.Used()
}

// LiveBase returns the number of base VVBNs still live in the clone's
// active map — the blocks a split must rewrite before the parent hold can
// drop. amapFile is the clone's activemap metafile.
func (st *State) LiveBase(amapFile *fs.File, nbits uint64) uint64 {
	if st == nil {
		return 0
	}
	return bitmap.AndPopcount(st.BaseFile, amapFile, nbits)
}
