package fs

import (
	"fmt"
	"math/bits"

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

// node is one position of a file's index: a trie with the shape of the
// indirect tree, one node per indirect-block position from level 1 up to
// the root. An FBN is a radix path, so finding a block is one array step
// per level. Nodes are not Buffers: a node exists as soon as anything
// beneath it is resident, while its indirect block may never have been
// loaded — residency of the block is buf != nil, and the demand-load path
// branches on exactly that.
//
// A user file's level-1 node holds its L0s themselves, one image word a
// slot (words), and a bitmap per state beside them: held (resident: set by
// a write and by Hold, kept after the word leaves at its CP's commit,
// DESIGN §15), dirty (in the open generation), frozen (in the running CP,
// not yet cleaned) and cleaned (cleaned in the running CP: the media holds
// the word's image, and the word leaves at the commit). A slot both frozen
// and dirty was overwritten during the CP: its CP image waits in
// userImages. A slot holds a word exactly when it is dirty, frozen or
// cleaned, and the node holds its array only while some slot does. A
// metafile's level-1 node holds its L0 buffers in leaves instead, with the
// frozen bit of each buffer dirty in the running CP.
//
// Above level 1, dirty and frozen roll up: bit d says kid d has such slots
// beneath it, and for frozen also that the kid's indirect, or one beneath
// it, is dirty in the running CP (Buffer.inCP). Rolled-up frozen bits stay
// set until the CP ends — a user file's commit (DropClean), the root clean
// that empties a metafile's frozen set — so Freeze, the cleaner's walk
// (NextFrozen) and DropClean visit exactly the nodes that have some, in
// index order. Bits go with the tree: a deleted, restored or crashed file
// starts over with none.
//
// Slot arrays are sized to the highest slot touched, rounded up to a power
// of two, so small and sparse files do not pay for 256 slots per node, and
// nothing is ever sized from the file's capacity or its on-media record.
type node struct {
	buf    *Buffer      // the indirect buffer at this position; nil if not resident
	kids   []*node      // level >= 2: child positions
	leaves []*Buffer    // level 1 of a metafile: L0 buffers
	words  []block.Word // level 1 of a user file: L0 images (ImagePool.words)

	held, dirty, frozen, cleaned slotBits
}

// slotBits is a bitmap over a node's slots.
type slotBits [block.PtrsPerBlock / 64]uint64

func (s *slotBits) has(d int) bool { return s[d/64]>>(d%64)&1 != 0 }
func (s *slotBits) set(d int)      { s[d/64] |= 1 << (d % 64) }
func (s *slotBits) clear(d int)    { s[d/64] &^= 1 << (d % 64) }
func (s *slotBits) empty() bool    { return s[0]|s[1]|s[2]|s[3] == 0 }

// next returns the first set bit at or after d, or -1.
func (s *slotBits) next(d int) int {
	for i := d / 64; i < len(s); i++ {
		w := s[i]
		if i == d/64 {
			w &= ^uint64(0) << (d % 64)
		}
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// growKids returns s extended to hold slot d.
func growKids(s []*node, d int) []*node {
	_, n := slotClass(d)
	ns := make([]*node, n)
	copy(ns, s)
	return ns
}

// File is a buffer tree: a radix tree of indirect blocks over L0 data
// blocks. Both user files and metafiles (allocation bitmaps, inode files,
// container maps) are Files — "WAFL stores all metadata in files".
type File struct {
	ino      uint64
	height   int
	size     block.FBN   // one past the highest FBN ever written
	metafile bool        // a metafile (NewMetafile, or a FlagMetafile record): L0s are CP-owned buffers
	l0Len    int         // a metafile L0's image length in bytes (SetL0Len)
	pool     *ImagePool  // where arrays come from and go back to; nil allocates
	own      *userImages // without a pool, the home of the file's user L0 images (images)

	root     node // index position of the root indirect block (level height)
	resident int  // buffers in the index, all levels

	// dirtyL0 counts the user L0s dirty in the open generation; frozen[l]
	// the level-l blocks in the running CP and not yet cleaned: user L0s
	// frozen into it, indirects that cleaning dirties straight into it and
	// metafile L0s (DirtyIntoCP).
	dirtyL0 int
	frozen  [MaxHeight + 1]int

	// Root location on persistent storage (pointer held by the inode).
	RootVVBN block.VVBN
	RootVBN  block.VBN

	// Gen counts CPs that cleaned this file (persisted in the record).
	Gen uint64

	// CoWCopies counts client overwrites of frozen or cleaned L0s, whose
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
		l0Len:    block.Size,
		RootVVBN: block.InvalidVVBN,
		RootVBN:  block.InvalidVBN,
	}
}

// NewMetafile creates an empty metafile of the given tree height: a file
// whose L0s, like every indirect block, are CP-owned buffers.
func NewMetafile(ino uint64, height int) *File {
	f := NewFile(ino, height)
	f.metafile = true
	return f
}

// SetMetafile makes f, which holds no user L0, a metafile: CP-side code
// writes its L0s (GetOrCreateL0, CPMutableData).
func (f *File) SetMetafile() { f.metafile = true }

// SetL0Len makes n bytes, 0 < n <= block.Size, the length of metafile f's
// L0 images: of the arrays its L0 buffers hold (Data, CPMutableData,
// InstallBuffer), and the measure of MarkCleaned's sparse rule. It is
// block.Size but for a metafile whose entries fill less: the owner that
// decodes its L0s sets it, when it creates or mounts the file and before
// the file holds a block.
func (f *File) SetL0Len(n int) { f.l0Len = n }

// L0Len returns the length of f's metafile L0 images (SetL0Len).
func (f *File) L0Len() int { return f.l0Len }

// SetImagePool makes p the pool the file's arrays come from. The owner of
// the media sets it on every file it creates or mounts, before the file
// holds a block.
func (f *File) SetImagePool(p *ImagePool) { f.pool = p }

// images returns the home of f's user L0 images: its image pool's, or for a
// file without a pool its own.
func (f *File) images() *userImages {
	if f.pool != nil {
		return &f.pool.user
	}
	if f.own == nil {
		f.own = &userImages{preserved: map[l0Key]block.Word{}}
	}
	return f.own
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
// the block at (level, idx).
func digit(level int, idx block.FBN, l int) int {
	return int(idx>>(radixBits*uint(l-1-level))) & (block.PtrsPerBlock - 1)
}

// find returns the index node that holds the block at (level, idx) — the
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

// Buffer returns the cached buffer at (level, idx), or nil. A user L0 has
// none: it is a slot (L0).
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
// been written, or Hold marked it, since the tree was built.
func (f *File) Resident(fbn block.FBN) bool {
	if fbn>>(radixBits*uint(f.height)) != 0 {
		return false
	}
	n, d := f.find(0, fbn, false), digit(0, fbn, 1)
	return n != nil && n.held.has(d)
}

// Hold sets L0 fbn's residency bit without an image: a read brought the
// block into memory. A block past the file's capacity is a hole, and has
// no bit.
func (f *File) Hold(fbn block.FBN) {
	if fbn>>(radixBits*uint(f.height)) == 0 {
		f.find(0, fbn, true).held.set(digit(0, fbn, 1))
	}
}

// getOrCreate returns the CP-owned buffer at (level, idx), creating it
// zeroed if absent. Only the index nodes on its path are created with it —
// never the indirect buffers above it. A metafile L0's residency bit is
// set; a user L0 has no buffer, and asking for one panics.
func (f *File) getOrCreate(level int, idx block.FBN) *Buffer {
	if uint(level) > uint(f.height) || idx>>(radixBits*uint(f.height-level)) != 0 {
		panic(fmt.Sprintf("fs: buffer (level %d, index %d) outside tree of height %d (ino %d)", level, idx, f.height, f.ino))
	}
	if level == 0 && !f.metafile {
		panic(fmt.Sprintf("fs: user L0 %d of ino %d has no buffer: it is a slot of its L1", idx, f.ino))
	}
	n := f.find(level, idx, true)
	at := &n.buf
	if level == 0 {
		d := digit(0, idx, 1)
		if d >= len(n.leaves) {
			n.leaves = leaves(n.leaves, d)
		}
		at = &n.leaves[d]
		n.held.set(d)
	}
	if *at == nil {
		*at = &Buffer{f: f, fbn: idx << (radixBits * uint(level)), level: uint8(level), vvbn: block.InvalidVVBN, vbn: block.InvalidVBN}
		f.resident++
	}
	return *at
}

// InstallBuffer populates the cache with a CP-owned block loaded from
// persistent storage (the mount and demand-load paths). The image is copied
// from the pool, unsealed, so no buffer ever holds a media array the pool
// may take back: an indirect into an array of the image's own length, nil
// if it is empty, as CleanChild would have grown it; a metafile L0 into a
// private array of the file's L0 length (L0Len), because CPMutableData and
// the metafile decoders work on whole images. A metafile L0's image must
// hold nothing past that length (the mount checks it): its bytes past it,
// if any, are zero. A user L0 has no buffer: a read of one holds it (Hold).
func (f *File) InstallBuffer(level int, idx block.FBN, img block.Image, vvbn block.VVBN, vbn block.VBN) *Buffer {
	b := f.getOrCreate(level, idx)
	data := img.Bytes
	switch {
	case img.IsNil():
	case level > 0:
		b.data, b.sealed = f.pool.copyOf(data, len(data)), false
	default:
		b.data, b.sealed = f.pool.copyOf(data, f.l0Len), false
	}
	b.vvbn, b.vbn = vvbn, vbn
	if level == 0 && b.fbn >= f.size {
		f.size = b.fbn + 1
	}
	return b
}

// WriteBlock replaces user L0 fbn with the block image data (up to one
// block; bytes past len(data) read as zero): WriteImage of bytes. data is
// adopted, not copied: the caller gives the array up, and from here on
// nobody writes into it — the slot, the NVLog record that logged it and
// later the media share it. It returns nil: a user L0 has no buffer.
func (f *File) WriteBlock(fbn block.FBN, data []byte) *Buffer {
	return f.WriteImage(fbn, block.Image{Bytes: data})
}

// WriteImage replaces user L0 fbn with img in the open generation and marks
// it dirty: the image's word goes into the L0's slot, a client's payload by
// name costing no array. No image anything else holds is written over: the
// running CP's, if the L0 is frozen and not yet cleaned, is preserved for
// it; the media's, if the L0 was cleaned or is held at the address its
// resident L1 names, stays there. Each counts a copy-on-write (CoWCopies).
// A nil image is the zero block written. It returns nil: a user L0 has no
// buffer.
func (f *File) WriteImage(fbn block.FBN, img block.Image) *Buffer {
	if f.metafile || fbn>>(radixBits*uint(f.height)) != 0 {
		panic(fmt.Sprintf("fs: client write to L0 %d outside the user tree of height %d (ino %d)", fbn, f.height, f.ino))
	}
	if img.IsNil() {
		img.Bytes = []byte{}
	}
	n, d := f.find(0, fbn, true), digit(0, fbn, 1)
	if d >= len(n.words) {
		n.words = f.pool.words(n.words, d)
	}
	u := f.images()
	w := n.words[d]
	switch {
	case n.frozen.has(d) && !n.dirty.has(d):
		u.preserved[l0Key{f, fbn}] = w
		w = 0
		f.CoWCopies++
	case n.cleaned.has(d):
		n.cleaned.clear(d)
		f.CoWCopies++
	case w == 0 && n.held.has(d):
		if _, vbn := l0Addr(n, d); vbn != block.InvalidVBN {
			f.CoWCopies++
		}
	}
	n.words[d] = u.Put(w, img)
	n.held.set(d)
	if !n.dirty.has(d) {
		if n.dirty.empty() {
			f.markDirty(fbn)
		}
		n.dirty.set(d)
		f.dirtyL0++
	}
	if fbn >= f.size {
		f.size = fbn + 1
	}
	return nil
}

// markDirty sets the dirty bits on the path from the root to L0 fbn's
// level-1 node, whose first dirty slot it is.
func (f *File) markDirty(fbn block.FBN) {
	n := &f.root
	for l := f.height; l > 1; l-- {
		d := digit(0, fbn, l)
		n.dirty.set(d)
		n = n.kids[d]
	}
}

// l0Addr returns the address level-1 node n's resident L1 names for its L0
// slot d; invalid if the L1 is not resident or the slot is a hole.
func l0Addr(n *node, d int) (block.VVBN, block.VBN) {
	if n.buf != nil {
		if vvbn, vbn := block.GetPtr(n.buf.data, d); !hole(vbn) {
			return vvbn, vbn
		}
	}
	return block.InvalidVVBN, block.InvalidVBN
}

// L0 returns user L0 fbn's live image if it is in memory — dirty, in the
// running CP, or cleaned by it and not yet committed — and ok false
// otherwise: its content is its media image.
func (f *File) L0(fbn block.FBN) (img block.Image, ok bool) {
	if fbn>>(radixBits*uint(f.height)) != 0 {
		return img, false
	}
	n, d := f.find(0, fbn, false), digit(0, fbn, 1)
	if n == nil || d >= len(n.words) || n.words[d] == 0 {
		return img, false
	}
	return f.images().Image(n.words[d]), true
}

// ReadBlock returns user L0 fbn's live byte image, or nil if it has none:
// the block is not in memory, and callers fall back to the demand-load
// path, or it is held by name, which L0 returns.
func (f *File) ReadBlock(fbn block.FBN) []byte {
	img, _ := f.L0(fbn)
	return img.Bytes
}

// DirtyCount returns the number of user L0s dirty in the open generation.
func (f *File) DirtyCount() int { return f.dirtyL0 }

// FrozenCount returns the number of blocks still awaiting cleaning in the
// frozen set, all levels.
func (f *File) FrozenCount() int {
	n := 0
	for _, c := range f.frozen {
		n += c
	}
	return n
}

// FrozenLevelCount returns the number of level-l blocks still awaiting
// cleaning in the frozen set.
func (f *File) FrozenLevelCount(level int) int { return f.frozen[level] }

// Freeze atomically moves the open generation's dirty user L0s into the
// running CP at its start: a word of bits at a time, down the nodes the
// dirty bits lead to. The previous CP must have completed (empty frozen
// set). It returns the number of L0s frozen.
func (f *File) Freeze() int {
	if n := f.FrozenCount(); n != 0 {
		panic(fmt.Sprintf("fs: Freeze with %d uncleaned frozen blocks (ino %d)", n, f.ino))
	}
	if f.dirtyL0 > 0 {
		f.root.freeze(f.height)
	}
	f.frozen[0], f.dirtyL0 = f.dirtyL0, 0
	return f.frozen[0]
}

// freeze moves the dirty bits of n, at level, and of the nodes they lead to
// into their frozen bits.
func (n *node) freeze(level int) {
	for i, w := range n.dirty {
		n.frozen[i] |= w
		n.dirty[i] = 0
		for ; level > 1 && w != 0; w &= w - 1 {
			n.kids[i*64+bits.TrailingZeros64(w)].freeze(level - 1)
		}
	}
}

// NextFrozen returns the first block at level, with index at or after lo and
// below hi, that is frozen in the running CP and not yet cleaned, and its
// buffer: nil for a user L0, which is a slot (CleanL0), else the buffer to
// clean (CleanChild). It is found down the frozen bits — a slot by its bit
// in its level-1 node, an indirect by Buffer.inCP under the roll-ups — in
// index order, the cleaning order, with no list and no sort. Cleaning a
// block clears its bit, so a cleaner goes on from the index after the one
// it cleaned, and L0 range jobs over disjoint ranges of one file may
// interleave: each sees exactly its range while the others clean theirs.
// Cleaning level l dirties parents at level l+1, so callers walk the levels
// bottom-up, each once the one below is cleaned.
func (f *File) NextFrozen(level int, lo, hi block.FBN) (block.FBN, *Buffer, bool) {
	hi = min(hi, block.FBN(1)<<(radixBits*uint(f.height-level)))
	switch {
	case f.frozen[level] == 0 || lo >= hi:
		return 0, nil, false
	case level == f.height:
		return 0, f.root.buf, true
	}
	return f.root.nextFrozen(f.height, level, 0, lo, hi)
}

// nextFrozen is NextFrozen beneath n, the node at nl > level whose first
// block at level is base: base <= lo < base + its span.
func (n *node) nextFrozen(nl, level int, base, lo, hi block.FBN) (block.FBN, *Buffer, bool) {
	shift := radixBits * uint(nl-1-level)
	for d := int((lo - base) >> shift); ; d++ {
		if d = n.frozen.next(d); d < 0 {
			return 0, nil, false
		}
		at := base + block.FBN(d)<<shift
		switch {
		case at >= hi:
			return 0, nil, false
		case nl == 1:
			var b *Buffer
			if d < len(n.leaves) {
				b = n.leaves[d]
			}
			return at, b, true
		case nl-1 == level:
			if b := n.kids[d].buf; b != nil && b.inCP {
				return at, b, true
			}
		default:
			if idx, b, ok := n.kids[d].nextFrozen(nl-1, level, at, max(lo, at), hi); ok {
				return idx, b, true
			}
		}
	}
}

// CleanL0 records that the cleaner assigned (vvbn, vbn) to frozen user L0
// fbn: it updates the L1's CP image with the L0's new dual address, dirtying
// the L1 into the same CP. It returns the image to write at vbn — the
// preserved CP image if a client overwrote the L0 during the CP, else the
// slot's word, which stays in the slot (cleaned) until the commit — and the
// L0's previous address, to be freed: the one its resident L1 names, none
// without one.
func (f *File) CleanL0(fbn block.FBN, vvbn block.VVBN, vbn block.VBN) (img block.Image, oldVVBN block.VVBN, oldVBN block.VBN) {
	n, d := f.find(0, fbn, false), digit(0, fbn, 1)
	if n == nil || !n.frozen.has(d) {
		panic(fmt.Sprintf("fs: CleanL0 on L0 %d not in the frozen set (ino %d)", fbn, f.ino))
	}
	n.frozen.clear(d)
	f.frozen[0]--
	oldVVBN, oldVBN = l0Addr(n, d)
	u := f.images()
	if n.dirty.has(d) {
		k := l0Key{f, fbn}
		w, ok := u.preserved[k]
		if !ok {
			panic(fmt.Sprintf("fs: L0 %d (ino %d) is frozen and dirty but has no CP image", fbn, f.ino))
		}
		img = u.Image(w)
		u.Put(w, block.Image{})
		delete(u.preserved, k)
	} else {
		img = u.Image(n.words[d])
		n.cleaned.set(d)
	}
	f.setParent(0, fbn, vvbn, vbn)
	return img, oldVVBN, oldVBN
}

// CleanChild records that the cleaner assigned (vvbn, vbn) to frozen buffer
// b: it updates the parent indirect's CP image with the child's new dual
// address (dirtying the parent into the same CP), or the file's root pointer
// if b is the root. It returns the image to write at vbn (Buffer.MarkCleaned)
// and b's previous location, to be freed.
func (f *File) CleanChild(b *Buffer, vvbn block.VVBN, vbn block.VBN) (img block.Image, mediaOnly bool, oldVVBN block.VVBN, oldVBN block.VBN) {
	if !b.inCP {
		panic("fs: CleanChild on buffer not in frozen set")
	}
	f.frozen[b.level]--
	if b.level == 0 {
		f.find(0, b.fbn, false).frozen.clear(digit(0, b.fbn, 1))
	}
	img, mediaOnly, oldVVBN, oldVBN = b.MarkCleaned(vvbn, vbn)

	if b.Level() == f.height {
		f.RootVVBN, f.RootVBN = vvbn, vbn
		f.Gen++
		if f.metafile && f.FrozenCount() == 0 {
			// Nothing is left to clean, so nobody is walking: clear the
			// roll-ups. This, not a commit, is what ends the CP of a
			// metafile, which is only ever dirtied into the CP.
			f.DropClean()
		}
		return img, mediaOnly, oldVVBN, oldVBN
	}
	f.setParent(b.Level(), b.Index(), vvbn, vbn)
	return img, mediaOnly, oldVVBN, oldVBN
}

// setParent writes (vvbn, vbn), the new address of the block at (level,
// idx), into its parent indirect's CP image, dirtying the parent into the
// same CP. It is the one writer of indirect images, and the one place an
// indirect's array grows (Buffer.ptrs).
func (f *File) setParent(level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) {
	parent := f.getOrCreate(level+1, idx>>radixBits)
	slot := int(idx & (block.PtrsPerBlock - 1))
	block.PutPtr(parent.ptrs((slot+1)*block.PtrSize), slot, vvbn, vbn)
	f.DirtyIntoCP(parent)
}

// DirtyIntoCP marks a buffer dirty directly into the frozen set — used for
// metafile updates made on behalf of the running CP, which must reach
// persistent storage in that same CP (paper §II-C). The caller mutates the
// buffer via CPMutableData. It sets the frozen bits on the path to the
// buffer: a metafile L0's slot bit in its level-1 node, and the roll-ups
// above.
func (f *File) DirtyIntoCP(b *Buffer) {
	if b.inCP {
		return
	}
	b.inCP = true
	f.frozen[b.level]++
	level, idx := b.Level(), b.Index()
	n := &f.root
	for l := f.height; l > level; l-- {
		d := digit(level, idx, l)
		n.frozen.set(d)
		if l > level+1 {
			n = n.kids[d]
		}
	}
}

// DropClean ends the running CP for user file f once it has committed:
// every L0 the CP cleaned that no client dirtied again leaves its slot. Its
// write has landed, so the media holds its image, and its residency bit
// stays. Not at CleanL0: until the commit the write may be in flight, and
// the word is what holds the content. A node left with no word gives its
// slot array back. Only the nodes the CP froze are visited, and their
// rolled-up frozen bits are cleared.
func (f *File) DropClean() { f.root.dropClean(f, f.height) }

func (n *node) dropClean(f *File, level int) {
	if level > 1 {
		for i, w := range n.frozen {
			n.frozen[i] = 0
			for ; w != 0; w &= w - 1 {
				n.kids[i*64+bits.TrailingZeros64(w)].dropClean(f, level-1)
			}
		}
		return
	}
	u := f.images()
	for i, w := range n.cleaned {
		n.cleaned[i] = 0
		for ; w != 0; w &= w - 1 {
			d := i*64 + bits.TrailingZeros64(w)
			n.words[d] = u.Put(n.words[d], block.Image{})
		}
	}
	if n.words != nil && n.dirty.empty() && n.frozen.empty() {
		f.pool.putWords(n.words)
		n.words = nil
	}
}

// Release drops every user L0 image f's tree still holds, with the slot
// arrays and the preserved images that held them. Its owner calls it once
// the tree is dropped — a deleted file, a volume's discarded present — and
// no CP will clean it again.
func (f *File) Release() {
	u := f.images()
	f.eachNode(func(n *node, _ int, base block.FBN) {
		for d, w := range n.words {
			u.Put(w, block.Image{})
			if n.frozen.has(d) && n.dirty.has(d) {
				k := l0Key{f, base | block.FBN(d)}
				u.Put(u.preserved[k], block.Image{})
				delete(u.preserved, k)
			}
		}
		f.pool.putWords(n.words)
	})
	f.root, f.resident = node{}, 0
	f.dirtyL0, f.frozen = 0, [MaxHeight + 1]int{}
}

// GetOrCreateL0 returns metafile f's L0 buffer for fbn, creating it if
// needed, without marking it dirty. Metafile code uses it with DirtyIntoCP /
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

// eachNode calls fn for every index node, parents before their children,
// with its level and the first L0 beneath it.
func (f *File) eachNode(fn func(n *node, level int, base block.FBN)) {
	var visit func(n *node, level int, base block.FBN)
	visit = func(n *node, level int, base block.FBN) {
		fn(n, level, base)
		for d, k := range n.kids {
			if k != nil {
				visit(k, level-1, base|block.FBN(d)<<(radixBits*uint(level-1)))
			}
		}
	}
	visit(&f.root, f.height, 0)
}

// PtrAt reads entry childIdx of indirect buffer b; an entry past the end of
// its short array is a hole.
func PtrAt(b *Buffer, childIdx int) (block.VVBN, block.VBN) {
	if b.level == 0 {
		panic("fs: PtrAt on data buffer")
	}
	return block.GetPtr(b.Data(), childIdx)
}
