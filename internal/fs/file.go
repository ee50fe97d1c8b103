package fs

import (
	"fmt"
	"sort"

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

// dirtySet tracks dirty buffers per level.
type dirtySet struct {
	levels []map[block.FBN]*Buffer // keyed by buffer index within the level
	count  int
}

func newDirtySet(height int) *dirtySet {
	ds := &dirtySet{levels: make([]map[block.FBN]*Buffer, height+1)}
	for i := range ds.levels {
		ds.levels[i] = make(map[block.FBN]*Buffer)
	}
	return ds
}

func (ds *dirtySet) add(idx block.FBN, b *Buffer) {
	if _, ok := ds.levels[b.level][idx]; !ok {
		ds.levels[b.level][idx] = b
		ds.count++
	}
}

// File is a buffer tree: a radix tree of indirect blocks over L0 data
// blocks. Both user files and metafiles (allocation bitmaps, inode files,
// container maps) are Files — "WAFL stores all metadata in files".
type File struct {
	ino    uint64
	height int
	size   block.FBN // one past the highest FBN ever written

	// levels[l] caches this file's buffers at level l, keyed by buffer
	// index (fbn >> (8*l)).
	levels []map[block.FBN]*Buffer

	curr   *dirtySet // dirty in the open generation
	frozen *dirtySet // dirty in the freezing CP

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
	f := &File{
		ino:      ino,
		height:   height,
		levels:   make([]map[block.FBN]*Buffer, height+1),
		RootVVBN: block.InvalidVVBN,
		RootVBN:  block.InvalidVBN,
	}
	for i := range f.levels {
		f.levels[i] = make(map[block.FBN]*Buffer)
	}
	f.curr = newDirtySet(height)
	f.frozen = newDirtySet(height)
	return f
}

// Ino returns the file's inode number.
func (f *File) Ino() uint64 { return f.ino }

// Height returns the file's tree height.
func (f *File) Height() int { return f.height }

// Size returns one past the highest FBN ever written.
func (f *File) Size() block.FBN { return f.size }

// MaxBlocks returns the file's addressable capacity in blocks.
func (f *File) MaxBlocks() uint64 {
	n := uint64(1)
	for i := 0; i < f.height; i++ {
		n *= uint64(block.PtrsPerBlock)
	}
	return n
}

// index returns b's key within its level map.
func index(b *Buffer) block.FBN { return b.fbn >> (radixBits * uint(b.level)) }

// Buffer returns the cached buffer at (level, idx), or nil.
func (f *File) Buffer(level int, idx block.FBN) *Buffer {
	return f.levels[level][idx]
}

// getOrCreate returns the buffer at (level, idx), creating it zeroed if
// absent.
func (f *File) getOrCreate(level int, idx block.FBN) *Buffer {
	if b := f.levels[level][idx]; b != nil {
		return b
	}
	b := newBuffer(idx<<(radixBits*uint(level)), level)
	f.levels[level][idx] = b
	return b
}

// InstallBuffer populates the cache with a block loaded from persistent
// storage (the mount/read path). data is adopted, not copied, and the
// buffer is sealed: it aliases the media image until first modification.
func (f *File) InstallBuffer(level int, idx block.FBN, data []byte, vvbn block.VVBN, vbn block.VBN) *Buffer {
	b := f.getOrCreate(level, idx)
	if data != nil {
		b.data = data
		b.sealed = true
	}
	b.vvbn, b.vbn = vvbn, vbn
	if level == 0 && b.fbn >= f.size {
		f.size = b.fbn + 1
	}
	return b
}

// WriteBlock replaces FBN fbn with the block image data (up to one block;
// bytes past len(data) read as zero) in the open generation, applying CP
// copy-on-write as needed, and marks the buffer dirty. data is copied, never
// retained. It returns the buffer.
func (f *File) WriteBlock(fbn block.FBN, data []byte) *Buffer {
	if uint64(fbn) >= f.MaxBlocks() {
		panic(fmt.Sprintf("fs: fbn %d beyond file capacity %d (ino %d)", fbn, f.MaxBlocks(), f.ino))
	}
	b := f.getOrCreate(0, fbn)
	if b.replace(data) {
		f.CoWCopies++
	}
	if !b.dirtyCurr {
		b.dirtyCurr = true
		f.curr.add(fbn, b)
	}
	if fbn >= f.size {
		f.size = fbn + 1
	}
	return b
}

// ReadBlock returns the live image of FBN fbn from the cache, or nil if the
// block is not resident (callers fall back to the demand-load path).
func (f *File) ReadBlock(fbn block.FBN) []byte {
	if b := f.levels[0][fbn]; b != nil {
		return b.Data()
	}
	return nil
}

// DirtyCount returns the number of buffers dirty in the open generation.
func (f *File) DirtyCount() int { return f.curr.count }

// FrozenCount returns the number of buffers still awaiting cleaning in the
// frozen set.
func (f *File) FrozenCount() int { return f.frozen.count }

// Freeze atomically moves the open generation's dirty set into the frozen
// set at CP start. The previous CP must have completed (empty frozen set).
// It returns the number of buffers frozen.
func (f *File) Freeze() int {
	if f.frozen.count != 0 {
		panic(fmt.Sprintf("fs: Freeze with %d uncleaned frozen buffers (ino %d)", f.frozen.count, f.ino))
	}
	n := 0
	for level, m := range f.curr.levels {
		for idx, b := range m {
			b.freeze()
			f.frozen.add(idx, b)
			n++
			delete(m, idx)
		}
		_ = level
	}
	f.curr.count = 0
	return n
}

// FrozenLevel returns the frozen-dirty buffers at the given level, sorted by
// FBN — the cleaning order. Cleaning level l may add newly-dirtied parents
// at level l+1; callers iterate levels bottom-up, calling FrozenLevel for
// each level only after the previous level is fully cleaned.
func (f *File) FrozenLevel(level int) []*Buffer {
	m := f.frozen.levels[level]
	out := make([]*Buffer, 0, len(m))
	for _, b := range m {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].fbn < out[j].fbn })
	return out
}

// CleanChild records that the cleaner assigned (vvbn, vbn) to frozen buffer
// b and submitted its CP image: it updates the parent indirect's CP image
// with the child's new dual address (dirtying the parent into the same CP),
// or the file's root pointer if b is the root. It returns b's previous
// location, to be freed.
func (f *File) CleanChild(b *Buffer, vvbn block.VVBN, vbn block.VBN) (oldVVBN block.VVBN, oldVBN block.VBN) {
	if !b.dirtyFrozen {
		panic("fs: CleanChild on buffer not in frozen set")
	}
	idx := index(b)
	delete(f.frozen.levels[b.level], idx)
	f.frozen.count--
	oldVVBN, oldVBN = b.MarkCleaned(vvbn, vbn)

	if b.level == f.height {
		f.RootVVBN, f.RootVBN = vvbn, vbn
		f.Gen++
		return oldVVBN, oldVBN
	}
	parent := f.getOrCreate(b.level+1, idx>>radixBits)
	pd := parent.CPMutableData()
	block.PutPtr(pd, int(idx&(block.PtrsPerBlock-1)), vvbn, vbn)
	if !parent.dirtyFrozen {
		parent.dirtyFrozen = true
		parent.inCP = true
		f.frozen.add(index(parent), parent)
	}
	return oldVVBN, oldVBN
}

// DirtyIntoCP marks a buffer dirty directly into the frozen set — used for
// metafile updates made on behalf of the running CP, which must reach
// persistent storage in that same CP (paper §II-C). The caller mutates the
// buffer via CPMutableData.
func (f *File) DirtyIntoCP(b *Buffer) {
	if !b.dirtyFrozen {
		b.dirtyFrozen = true
		b.inCP = true
		f.frozen.add(index(b), b)
	}
}

// GetOrCreateL0 returns the L0 buffer for fbn, creating it if needed,
// without marking it dirty. Metafile code uses it with DirtyIntoCP /
// CPMutableData.
func (f *File) GetOrCreateL0(fbn block.FBN) *Buffer {
	if uint64(fbn) >= f.MaxBlocks() {
		panic(fmt.Sprintf("fs: fbn %d beyond metafile capacity %d (ino %d)", fbn, f.MaxBlocks(), f.ino))
	}
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
	idx := index(b)
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

// ResidentBuffers returns the total number of cached buffers (all levels).
func (f *File) ResidentBuffers() int {
	n := 0
	for _, m := range f.levels {
		n += len(m)
	}
	return n
}
