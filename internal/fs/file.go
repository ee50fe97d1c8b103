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
// A level-1 node also keeps its L0s' residency bits (held): a bit is set
// when an L0 buffer is created and when Hold marks a block read, and it
// stays after the buffer leaves the tree at its CP's commit (DropClean). A
// user L0's buffer lives only while the block is dirty or in a CP; the bit
// is what says the block is still in memory (DESIGN §15). Bits go with the
// tree: a deleted, restored or crashed file starts over with none.
//
// Slot arrays are sized to the highest slot touched, rounded up to a power
// of two, so small and sparse files do not pay for 256 pointers per node,
// and nothing is ever sized from the file's capacity or its on-media
// record. A user file's level-1 node holds its array only while it holds an
// L0 buffer (live counts them): the array comes from the image pool and
// goes back to it when the node's last L0 leaves (DropClean, Release).
type node struct {
	buf    *Buffer   // the indirect buffer at this position; nil if not resident
	kids   []*node   // level >= 2: child positions
	leaves []*Buffer // level 1: L0 buffers (ImagePool.leaves)
	live   int       // level 1: the L0 buffers in leaves
	held   [block.PtrsPerBlock / 64]uint64
}

// growKids returns s extended to hold slot d.
func growKids(s []*node, d int) []*node {
	_, n := slotClass(d)
	ns := make([]*node, n)
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

// dirtyKeep is the capacity up to which a spent dirty list always keeps its
// array; past it, reset keeps an array only if the list used at least an
// eighth of it.
const dirtyKeep = 1024

// reset empties the list for reuse, clearing its entries: a user L0 leaves
// for the free list at its CP's commit, and a spent list must not keep it
// reachable. An array far longer than the list that is reset used — a
// burst's, such as a prefill dirtied in one CP — goes to the garbage
// collector, and the list grows again from nothing: a list whose length
// swings by less than eight times between CPs keeps its array.
func (dl *dirtyList) reset() {
	bufs := dl.bufs
	if cap(bufs) > dirtyKeep && cap(bufs) > 8*len(bufs) {
		bufs = nil
	}
	clear(bufs)
	*dl = dirtyList{bufs: bufs[:0]}
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
	size     block.FBN  // one past the highest FBN ever written
	metafile bool       // a metafile (NewMetafile, or a FlagMetafile record): L0s are CP-owned images
	pool     *ImagePool // where CP-owned arrays come from and go back to; nil allocates
	unpooled cpImages   // without a pool, the side home of preserved CP images (cpImages)

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

// NewMetafile creates an empty metafile of the given tree height: a file
// whose L0s, like every indirect block, are CP-owned images.
func NewMetafile(ino uint64, height int) *File {
	f := NewFile(ino, height)
	f.metafile = true
	return f
}

// SetImagePool makes p the pool the file's CP-owned arrays come from. The
// owner of the media sets it on every file it creates or mounts, before the
// file holds a buffer.
func (f *File) SetImagePool(p *ImagePool) { f.pool = p }

// cpImages returns the side home of f's preserved CP images: its image
// pool's, or for a file without a pool its own.
func (f *File) cpImages() cpImages {
	if f.pool != nil {
		return f.pool.preserved
	}
	if f.unpooled == nil {
		f.unpooled = cpImages{}
	}
	return f.unpooled
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

// find returns the index node that holds the buffer at (level, idx) — the
// node at that level, the level-1 node for an L0 — creating the nodes on its
// path if create is set, or nil if one is missing.
func (f *File) find(level int, idx block.FBN, create bool) *node {
	n := &f.root
	for l := f.height; l > level && l > 1; l-- {
		d := digit(level, idx, l)
		if d >= len(n.kids) {
			if !create {
				return nil
			}
			n.kids = growKids(n.kids, d)
		}
		if n.kids[d] == nil {
			if !create {
				return nil
			}
			n.kids[d] = new(node)
		}
		n = n.kids[d]
	}
	return n
}

// Buffer returns the cached buffer at (level, idx), or nil.
func (f *File) Buffer(level int, idx block.FBN) *Buffer {
	if uint(level) > uint(f.height) {
		panic(fmt.Sprintf("fs: level %d outside tree of height %d (ino %d)", level, f.height, f.ino))
	}
	if idx>>(radixBits*uint(f.height-level)) != 0 {
		return nil
	}
	n := f.find(level, idx, false)
	switch {
	case n == nil:
		return nil
	case level > 0:
		return n.buf
	}
	if d := digit(0, idx, 1); d < len(n.leaves) {
		return n.leaves[d]
	}
	return nil
}

// Resident reports whether L0 fbn is in the tree's residency bits: it has
// had a buffer, or Hold marked it, since the tree was built.
func (f *File) Resident(fbn block.FBN) bool {
	if fbn>>(radixBits*uint(f.height)) != 0 {
		return false
	}
	n, d := f.find(0, fbn, false), digit(0, fbn, 1)
	return n != nil && n.held[d/64]>>(d%64)&1 != 0
}

// Hold sets L0 fbn's residency bit without a buffer: a read brought the
// block into memory. A block past the file's capacity is a hole, and has
// no bit.
func (f *File) Hold(fbn block.FBN) {
	if fbn>>(radixBits*uint(f.height)) == 0 {
		d := digit(0, fbn, 1)
		f.find(0, fbn, true).held[d/64] |= 1 << (d % 64)
	}
}

// getOrCreate returns the buffer at (level, idx), creating it zeroed if
// absent. Only the index nodes on its path are created with it — never the
// indirect buffers above it. An L0's residency bit is set. An L0 that had a
// buffer until its CP committed comes back at the address its resident L1
// names, sealed: the media holds its image there, and an overwrite frees
// it.
func (f *File) getOrCreate(level int, idx block.FBN) *Buffer {
	if uint(level) > uint(f.height) || idx>>(radixBits*uint(f.height-level)) != 0 {
		panic(fmt.Sprintf("fs: buffer (level %d, index %d) outside tree of height %d (ino %d)", level, idx, f.height, f.ino))
	}
	n := f.find(level, idx, true)
	if level > 0 {
		if n.buf == nil {
			n.buf = f.pool.buffer(f, idx<<(radixBits*uint(level)), level)
			f.resident++
		}
		return n.buf
	}
	d := digit(0, idx, 1)
	if d >= len(n.leaves) {
		n.leaves = f.pool.leaves(f, n.leaves, d)
	}
	if n.leaves[d] == nil {
		b := f.pool.buffer(f, idx, 0)
		if n.held[d/64]>>(d%64)&1 != 0 && n.buf != nil {
			if vvbn, vbn := block.GetPtr(n.buf.Data(), d); !hole(vbn) {
				b.vvbn, b.vbn, b.sealed = vvbn, vbn, true
			}
		}
		n.leaves[d] = b
		n.live++
		n.held[d/64] |= 1 << (d % 64)
		f.resident++
	}
	return n.leaves[d]
}

// InstallBuffer populates the cache with a block loaded from persistent
// storage (the mount/read path). A user L0's image is adopted, not copied —
// a name by value, an array as it is — and the buffer is sealed: it aliases
// the media image until first modification, and a read miss allocates
// nothing, however short the image. A CP-owned image is copied from the
// pool, unsealed, so no buffer ever holds a media array the pool may take
// back: a sparse indirect (sparseMax bytes or fewer) into an array of the
// image's own length, nil if it is empty, as CleanChild would have grown
// it; a dense indirect and a metafile L0 into a private full block, because
// CPMutableData and the metafile decoders work on whole blocks.
func (f *File) InstallBuffer(level int, idx block.FBN, img block.Image, vvbn block.VVBN, vbn block.VBN) *Buffer {
	b := f.getOrCreate(level, idx)
	data := img.Bytes
	switch {
	case img.IsNil():
	case !b.cpOwned():
		b.data, b.name, b.sealed = data, img.Name, true
	case level > 0 && len(data) <= sparseMax:
		b.data, b.sealed = f.pool.copyOf(data, len(data)), false
	default:
		b.data, b.sealed = f.pool.full(data), false
	}
	b.vvbn, b.vbn = vvbn, vbn
	if level == 0 && b.fbn >= f.size {
		f.size = b.fbn + 1
	}
	return b
}

// WriteBlock replaces FBN fbn with the block image data (up to one block;
// bytes past len(data) read as zero): WriteImage of bytes. data is adopted,
// not copied: the caller gives the array up, and from here on nobody writes
// into it — the buffer, the NVLog record that logged it and later the media
// share it.
func (f *File) WriteBlock(fbn block.FBN, data []byte) *Buffer {
	return f.WriteImage(fbn, block.Image{Bytes: data})
}

// WriteImage replaces FBN fbn with img in the open generation, applying CP
// copy-on-write as needed, and marks the buffer dirty: a client's write
// holds its payload by name, which costs no array. It returns the buffer.
func (f *File) WriteImage(fbn block.FBN, img block.Image) *Buffer {
	b := f.getOrCreate(0, fbn)
	if b.replace(img) {
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
// and b's previous location, to be freed. It is the one writer of indirect
// images, and the one place an indirect's array grows (Buffer.ptrs).
func (f *File) CleanChild(b *Buffer, vvbn block.VVBN, vbn block.VBN) (img block.Image, mediaOnly bool, oldVVBN block.VVBN, oldVBN block.VBN) {
	if !b.dirtyFrozen {
		panic("fs: CleanChild on buffer not in frozen set")
	}
	f.frozen[b.level].live--
	f.frozenCount--
	img, mediaOnly, oldVVBN, oldVBN = b.MarkCleaned(vvbn, vbn)

	if b.Level() == f.height {
		f.RootVVBN, f.RootVBN = vvbn, vbn
		f.Gen++
		if f.frozenCount == 0 {
			// Nothing is left to clean, so nobody is iterating: drop the
			// cleaned entries. This, not Freeze, is what bounds the lists
			// of metafiles that are only ever dirtied into the CP. A user
			// file's L0 list waits for the commit, where DropClean walks
			// it.
			for l := range f.frozen {
				if l > 0 || f.metafile {
					f.frozen[l].reset()
				}
			}
		}
		return img, mediaOnly, oldVVBN, oldVBN
	}
	idx := b.Index()
	parent := f.getOrCreate(b.Level()+1, idx>>radixBits)
	slot := int(idx & (block.PtrsPerBlock - 1))
	block.PutPtr(parent.ptrs((slot+1)*block.PtrSize), slot, vvbn, vbn)
	f.DirtyIntoCP(parent)
	return img, mediaOnly, oldVVBN, oldVBN
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

// DropClean ends the running CP for user file f once it has committed: every
// L0 the CP froze that is clean now leaves the tree for the free list. Its
// write has landed, so the media holds its image, and its residency bit
// stays. Not at MarkCleaned: until the commit the write may be in flight,
// and the buffer is what holds the content. An L0 a client dirtied again
// stays. A node left with no L0 gives its slot array back. If no client
// dirtied the file during the CP, the open list takes the frozen list's
// array, the one the file's writes grew: a file written between CPs, not
// during them, keeps one array instead of growing a second.
func (f *File) DropClean() {
	for _, b := range f.frozen[0].bufs {
		if !b.dirtyCurr && !b.inCP {
			n := f.find(0, b.fbn, false)
			n.leaves[digit(0, b.fbn, 1)] = nil
			if n.live--; n.live == 0 {
				f.pool.putLeaves(f, n.leaves)
				n.leaves = nil
			}
			f.resident--
			f.pool.putBuffer(b)
		}
	}
	f.frozen[0].reset()
	if len(f.curr.bufs) == 0 && cap(f.curr.bufs) < cap(f.frozen[0].bufs) {
		f.curr.bufs, f.frozen[0].bufs = f.frozen[0].bufs, f.curr.bufs
	}
}

// Release puts every user L0 buffer left in f's tree back on the free list,
// and the slot arrays that held them. Its owner calls it once the tree is
// dropped — a deleted file, a volume's discarded present — and no CP will
// clean it again.
func (f *File) Release() {
	f.eachNode(func(n *node) {
		for _, b := range n.leaves {
			if b != nil && !b.cpOwned() {
				f.pool.putBuffer(b)
			}
		}
		f.pool.putLeaves(f, n.leaves)
	})
	f.root, f.resident = node{}, 0
	clear(f.unpooled) // a pooled file's entries left with their buffers (putBuffer)
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

// AppendAncestors appends to out the chain of indirect buffers strictly
// above b, from b's parent up to the root, creating missing ones, and
// returns the extended slice. Self-referential metafile flushing uses it to
// enumerate every buffer a clean will rewrite before committing to bit
// changes.
func (f *File) AppendAncestors(out []*Buffer, b *Buffer) []*Buffer {
	idx := b.Index()
	for level := b.Level() + 1; level <= f.height; level++ {
		idx >>= radixBits
		out = append(out, f.getOrCreate(level, idx))
	}
	return out
}

// eachNode calls fn for every index node, parents before their children.
func (f *File) eachNode(fn func(*node)) {
	var visit func(n *node)
	visit = func(n *node) {
		fn(n)
		for _, k := range n.kids {
			if k != nil {
				visit(k)
			}
		}
	}
	visit(&f.root)
}

// eachBuffer calls fn for every resident buffer, indirect and L0.
func (f *File) eachBuffer(fn func(*Buffer)) {
	f.eachNode(func(n *node) {
		if n.buf != nil {
			fn(n.buf)
		}
		for _, b := range n.leaves {
			if b != nil {
				fn(b)
			}
		}
	})
}

// PtrAt reads entry childIdx of indirect buffer b; an entry past the end of
// its short array is a hole.
func PtrAt(b *Buffer, childIdx int) (block.VVBN, block.VBN) {
	if b.level == 0 {
		panic("fs: PtrAt on data buffer")
	}
	return block.GetPtr(b.Data(), childIdx)
}
