package fs

import (
	"cmp"
	"fmt"
	"slices"

	"wafl/internal/block"
)

// radixBits is the fan-out of the indirect tree in bits (256 pointers per
// indirect block).
const radixBits = 8

// MaxHeight is the largest supported tree height (256^4 blocks ≈ 16 TiB).
const MaxHeight = 4

// HeightFor returns the minimum tree height able to address maxBlocks
// blocks. The height is fixed at file creation, as in WAFL where it grows
// only on explicit extension.
func HeightFor(maxBlocks uint64) int {
	span := uint64(block.PtrsPerBlock)
	for h := 1; h <= MaxHeight; h++ {
		if maxBlocks <= span {
			return h
		}
		span *= uint64(block.PtrsPerBlock)
	}
	panic(fmt.Sprintf("fs: file of %d blocks exceeds maximum height", maxBlocks))
}

// node is one position of a file's buffer index: a trie with the shape of
// the indirect tree, one node per indirect-block position from level 1 up
// to the root. An FBN is a radix path, so finding a buffer is one array
// step per level. Nodes are not Buffers: a node exists as soon as anything
// beneath it is resident, while its indirect block may never have been
// loaded — residency of the block is buf != nil, and the demand-load path
// branches on exactly that.
//
// Slot arrays are allocated on first touch and sized to the highest slot
// touched (rounded up to a power of two), so small and sparse files do not
// pay for 256 pointers per node, and nothing is ever sized from the file's
// capacity or its on-media record.
type node struct {
	buf    *Buffer   // the indirect buffer at this position; nil if not resident
	kids   []*node   // level >= 2: child positions
	leaves []*Buffer // level 1: L0 buffers
}

// growSlots returns s extended to hold slot d.
func growSlots[T any](s []*T, d int) []*T {
	n := 8
	for n <= d {
		n *= 2
	}
	ns := make([]*T, n)
	copy(ns, s)
	return ns
}

// dirtyList is a set of dirty buffers kept as an append-only list.
// Membership is the buffer's own flag (dirtyCurr / dirtyFrozen): a buffer is
// appended on its false-to-true flag transition, which de-duplicates, and
// leaves the set by having the flag cleared — the list entry stays behind.
// So every member appears at least once, live counts the members, and
// len(bufs) == live exactly when the list holds no cleaned entry and no
// repeat (a buffer cleaned and re-dirtied before the list was reset).
type dirtyList struct {
	bufs     []*Buffer
	live     int
	unsorted bool // some append arrived below its predecessor's FBN
}

func (dl *dirtyList) add(b *Buffer) {
	if n := len(dl.bufs); n > 0 && b.fbn < dl.bufs[n-1].fbn {
		dl.unsorted = true
	}
	dl.bufs = append(dl.bufs, b)
	dl.live++
}

// sort puts the list in FBN order — the cleaning order. Sequential writers
// append in order and never pay for it.
func (dl *dirtyList) sort() {
	if dl.unsorted {
		slices.SortFunc(dl.bufs, func(a, b *Buffer) int { return cmp.Compare(a.fbn, b.fbn) })
		dl.unsorted = false
	}
}

// File is a buffer tree: a radix tree of indirect blocks over L0 data
// blocks. Both user files and metafiles (allocation bitmaps, inode files,
// container maps) are Files — "WAFL stores all metadata in files".
type File struct {
	ino      uint64
	height   int
	size     block.FBN // one past the highest FBN ever written
	metafile bool      // mounted from a FlagMetafile record: L0s are CP-owned images

	root     node // index position of the root indirect block (level height)
	resident int  // buffers in the index, all levels

	// curr holds the buffers dirty in the open generation. Clients dirty
	// only L0 buffers; indirect blocks are dirtied by cleaning, straight
	// into the CP.
	curr dirtyList
	// frozen[l] holds the level-l buffers dirty in the freezing CP. All
	// lists are emptied whenever frozenCount returns to zero.
	frozen      [MaxHeight + 1]dirtyList
	frozenCount int

	// Root location on persistent storage (pointer held by the inode).
	RootVVBN block.VVBN
	RootVBN  block.VBN

	// Gen counts CPs that cleaned this file (persisted in the record).
	Gen uint64

	// CoWCopies counts client overwrites of frozen or sealed buffers, whose
	// old image had to stay behind for the CP or the media.
	CoWCopies uint64
}

// NewFile creates an empty file of the given tree height.
func NewFile(ino uint64, height int) *File {
	if height < 1 || height > MaxHeight {
		panic(fmt.Sprintf("fs: invalid height %d", height))
	}
	return &File{
		ino:      ino,
		height:   height,
		RootVVBN: block.InvalidVVBN,
		RootVBN:  block.InvalidVBN,
	}
}

// Ino returns the file's inode number.
func (f *File) Ino() uint64 { return f.ino }

// Height returns the file's tree height.
func (f *File) Height() int { return f.height }

// Size returns one past the highest FBN ever written.
func (f *File) Size() block.FBN { return f.size }

// MaxBlocks returns the file's addressable capacity in blocks.
func (f *File) MaxBlocks() uint64 { return 1 << (radixBits * uint(f.height)) }

// digit returns the slot, within the index node at level l, on the path to
// the buffer at (level, idx).
func digit(level int, idx block.FBN, l int) int {
	return int(idx>>(radixBits*uint(l-1-level))) & (block.PtrsPerBlock - 1)
}

// Buffer returns the cached buffer at (level, idx), or nil.
func (f *File) Buffer(level int, idx block.FBN) *Buffer {
	if uint(level) > uint(f.height) {
		panic(fmt.Sprintf("fs: level %d outside tree of height %d (ino %d)", level, f.height, f.ino))
	}
	if idx>>(radixBits*uint(f.height-level)) != 0 {
		return nil
	}
	n := &f.root
	for l := f.height; l > level && l > 1; l-- {
		d := digit(level, idx, l)
		if d >= len(n.kids) || n.kids[d] == nil {
			return nil
		}
		n = n.kids[d]
	}
	if level > 0 {
		return n.buf
	}
	if d := digit(0, idx, 1); d < len(n.leaves) {
		return n.leaves[d]
	}
	return nil
}

// getOrCreate returns the buffer at (level, idx), creating it zeroed if
// absent. Only the index nodes on its path are created with it — never the
// indirect buffers above it.
func (f *File) getOrCreate(level int, idx block.FBN) *Buffer {
	if uint(level) > uint(f.height) || idx>>(radixBits*uint(f.height-level)) != 0 {
		panic(fmt.Sprintf("fs: buffer (level %d, index %d) outside tree of height %d (ino %d)", level, idx, f.height, f.ino))
	}
	n := &f.root
	for l := f.height; l > level && l > 1; l-- {
		d := digit(level, idx, l)
		if d >= len(n.kids) {
			n.kids = growSlots(n.kids, d)
		}
		if n.kids[d] == nil {
			n.kids[d] = new(node)
		}
		n = n.kids[d]
	}
	slot := &n.buf
	if level == 0 {
		d := digit(0, idx, 1)
		if d >= len(n.leaves) {
			n.leaves = growSlots(n.leaves, d)
		}
		slot = &n.leaves[d]
	}
	if *slot == nil {
		*slot = newBuffer(idx<<(radixBits*uint(level)), level)
		f.resident++
	}
	return *slot
}

// InstallBuffer populates the cache with a block loaded from persistent
// storage (the mount/read path). data is adopted, not copied, and the
// buffer is sealed: it aliases the media image until first modification.
// The exception is a short CP-owned image (a sparse indirect or metafile L0,
// which the media keeps trimmed): it is padded into a private full block,
// unsealed, because PtrAt, CPMutableData and the metafile decoders work on
// whole blocks. A short user L0 is adopted as it is, so a read miss
// allocates nothing.
func (f *File) InstallBuffer(level int, idx block.FBN, data []byte, vvbn block.VVBN, vbn block.VBN) *Buffer {
	b := f.getOrCreate(level, idx)
	switch {
	case data == nil:
	case (level > 0 || f.metafile) && len(data) < block.Size:
		b.data, b.sealed = block.Clone(data), false
	default:
		b.data, b.sealed = data, true
	}
	b.vvbn, b.vbn = vvbn, vbn
	if level == 0 && b.fbn >= f.size {
		f.size = b.fbn + 1
	}
	return b
}

// WriteBlock replaces FBN fbn with the block image data (up to one block;
// bytes past len(data) read as zero) in the open generation, applying CP
// copy-on-write as needed, and marks the buffer dirty. data is adopted, not
// copied: the caller gives the array up, and from here on nobody writes into
// it — the buffer, the NVLog record that logged it and later the media share
// it. It returns the buffer.
func (f *File) WriteBlock(fbn block.FBN, data []byte) *Buffer {
	b := f.getOrCreate(0, fbn)
	if b.replace(data) {
		f.CoWCopies++
	}
	if !b.dirtyCurr {
		b.dirtyCurr = true
		f.curr.add(b)
	}
	if fbn >= f.size {
		f.size = fbn + 1
	}
	return b
}

// ReadBlock returns the live image of FBN fbn from the cache, or nil if the
// block is not resident (callers fall back to the demand-load path).
func (f *File) ReadBlock(fbn block.FBN) []byte {
	if b := f.Buffer(0, fbn); b != nil {
		return b.Data()
	}
	return nil
}

// DirtyCount returns the number of buffers dirty in the open generation.
func (f *File) DirtyCount() int { return f.curr.live }

// FrozenCount returns the number of buffers still awaiting cleaning in the
// frozen set.
func (f *File) FrozenCount() int { return f.frozenCount }

// FrozenLevelCount returns the number of level-l buffers still awaiting
// cleaning in the frozen set.
func (f *File) FrozenLevelCount(level int) int { return f.frozen[level].live }

// Freeze atomically moves the open generation's dirty set into the frozen
// set at CP start: a flag flip per buffer and a hand-over of the list. The
// previous CP must have completed (empty frozen set). It returns the number
// of buffers frozen.
func (f *File) Freeze() int {
	if f.frozenCount != 0 {
		panic(fmt.Sprintf("fs: Freeze with %d uncleaned frozen buffers (ino %d)", f.frozenCount, f.ino))
	}
	for _, b := range f.curr.bufs {
		b.freeze()
	}
	// The frozen lists are empty (frozenCount is 0), so the open list becomes
	// the frozen L0 list as it stands and the spent one is reused.
	spent := f.frozen[0].bufs[:0]
	f.frozen[0] = f.curr
	f.curr = dirtyList{bufs: spent}
	f.frozenCount = f.frozen[0].live
	return f.frozenCount
}

// FrozenLevel returns the frozen-dirty buffers at the given level, sorted by
// FBN — the cleaning order. Cleaning level l may add newly-dirtied parents
// at level l+1; callers iterate levels bottom-up, calling FrozenLevel for
// each level only after the previous level is fully cleaned.
//
// The result is the level's own list, not a copy: it stays valid while
// buffers are cleaned or dirtied, until the next FrozenLevel call for the
// same level, which drops cleaned entries and sorts in place (at most once
// per CP for a user file, and only if writes arrived out of FBN order).
func (f *File) FrozenLevel(level int) []*Buffer {
	dl := &f.frozen[level]
	if len(dl.bufs) != dl.live {
		dl.bufs = slices.DeleteFunc(dl.bufs, func(b *Buffer) bool { return !b.dirtyFrozen })
	}
	dl.sort()
	if len(dl.bufs) != dl.live {
		// Repeats of a buffer cleaned and re-dirtied are adjacent now.
		dl.bufs = slices.Compact(dl.bufs)
	}
	if len(dl.bufs) != dl.live {
		panic(fmt.Sprintf("fs: frozen list of level %d holds %d buffers, %d dirty (ino %d)", level, len(dl.bufs), dl.live, f.ino))
	}
	return dl.bufs
}

// FrozenRange returns the part of the frozen L0 list with FBN in [lo, hi),
// in FBN order, found by binary search — one slice of a large file split
// across cleaner threads. Unlike FrozenLevel it never drops entries, so
// range jobs over disjoint ranges of one file may interleave: each keeps
// seeing exactly its range while the others clean theirs.
func (f *File) FrozenRange(lo, hi block.FBN) []*Buffer {
	dl := &f.frozen[0]
	dl.sort()
	at := func(fbn block.FBN) int {
		i, _ := slices.BinarySearchFunc(dl.bufs, fbn, func(b *Buffer, fbn block.FBN) int { return cmp.Compare(b.fbn, fbn) })
		return i
	}
	return dl.bufs[at(lo):at(hi)]
}

// CleanChild records that the cleaner assigned (vvbn, vbn) to frozen buffer
// b: it updates the parent indirect's CP image with the child's new dual
// address (dirtying the parent into the same CP), or the file's root pointer
// if b is the root. It returns the image to write at vbn (Buffer.MarkCleaned)
// and b's previous location, to be freed.
func (f *File) CleanChild(b *Buffer, vvbn block.VVBN, vbn block.VBN) (img []byte, oldVVBN block.VVBN, oldVBN block.VBN) {
	if !b.dirtyFrozen {
		panic("fs: CleanChild on buffer not in frozen set")
	}
	f.frozen[b.level].live--
	f.frozenCount--
	img, oldVVBN, oldVBN = b.MarkCleaned(vvbn, vbn)

	if b.level == f.height {
		f.RootVVBN, f.RootVBN = vvbn, vbn
		f.Gen++
		if f.frozenCount == 0 {
			// Nothing is left to clean, so nobody is iterating: drop the
			// cleaned entries. This, not Freeze, is what bounds the lists
			// of metafiles that are only ever dirtied into the CP.
			for l := range f.frozen {
				f.frozen[l] = dirtyList{bufs: f.frozen[l].bufs[:0]}
			}
		}
		return img, oldVVBN, oldVBN
	}
	idx := b.Index()
	parent := f.getOrCreate(b.level+1, idx>>radixBits)
	pd := parent.CPMutableData()
	block.PutPtr(pd, int(idx&(block.PtrsPerBlock-1)), vvbn, vbn)
	f.DirtyIntoCP(parent)
	return img, oldVVBN, oldVBN
}

// DirtyIntoCP marks a buffer dirty directly into the frozen set — used for
// metafile updates made on behalf of the running CP, which must reach
// persistent storage in that same CP (paper §II-C). The caller mutates the
// buffer via CPMutableData.
func (f *File) DirtyIntoCP(b *Buffer) {
	if !b.dirtyFrozen {
		b.dirtyFrozen = true
		b.inCP = true
		f.frozen[b.level].add(b)
		f.frozenCount++
	}
}

// GetOrCreateL0 returns the L0 buffer for fbn, creating it if needed,
// without marking it dirty. Metafile code uses it with DirtyIntoCP /
// CPMutableData.
func (f *File) GetOrCreateL0(fbn block.FBN) *Buffer {
	b := f.getOrCreate(0, fbn)
	if fbn >= f.size {
		f.size = fbn + 1
	}
	return b
}

// AncestorPath returns the chain of indirect buffers strictly above b, from
// b's parent up to the root, creating missing ones. Self-referential
// metafile flushing uses it to enumerate every buffer a clean will rewrite
// before committing to bit changes.
func (f *File) AncestorPath(b *Buffer) []*Buffer {
	var out []*Buffer
	idx := b.Index()
	for level := b.level + 1; level <= f.height; level++ {
		idx >>= radixBits
		out = append(out, f.getOrCreate(level, idx))
	}
	return out
}

// PtrAt reads entry childIdx of indirect buffer b.
func PtrAt(b *Buffer, childIdx int) (block.VVBN, block.VBN) {
	if b.level == 0 {
		panic("fs: PtrAt on data buffer")
	}
	return block.GetPtr(b.Data(), childIdx)
}
