// Package fs implements the in-memory copy-on-write file system core: block
// buffers with consistency-point COW semantics, files as radix trees of
// indirect blocks (dual VVBN/VBN pointers, as in WAFL), per-file dirty-set
// management across consistency-point freezes, and the serialized inode
// records stored in inode metafiles.
//
// The package is deliberately mechanism-only: it knows nothing about drives,
// allocators, or scheduling. The consistency-point engine (internal/cp) and
// the write allocator (internal/core) drive it through the cleaning
// iteration API on File.
//
// Nothing on the data path hashes. An FBN is a radix path, so a File finds
// its buffers through a trie shaped like the indirect tree (node), and its
// dirty sets are append-only lists whose membership is the buffer's own
// flag (dirtyList): Freeze hands a list over, CleanChild clears a flag,
// FrozenLevel returns the list itself. DESIGN.md §15 has the invariants.
package fs

import (
	"wafl/internal/block"
)

// Buffer is the in-memory image of one block of a file, at any tree level
// (level 0 = user/metafile data, higher levels = indirect blocks).
//
// Indirect and metafile buffers stay in their tree. A user L0 buffer lives
// only while its block is dirty or in a CP: it comes from its aggregate's
// free list (ImagePool) when a write or a load creates it, and goes back
// when the CP that cleaned it commits (File.DropClean). The block stays
// resident after that — its residency bit (node.held) says so — and its
// content is its media image, read through its resident L1.
//
// Images follow the internal/block rule: a []byte of len <= block.Size
// whose missing tail reads as zero. A user L0 buffer holds the very array
// the client wrote (WriteBlock adopts it; the NVLog record shares it), at
// whatever length it was written; nothing is allocated until an L0 is
// first read (Data) or mutated CP-side (CPMutableData), and both of those
// hand metafile code a full-length array. An indirect's array is only as
// long as its pointers need (nil with none): CleanChild, its one writer,
// grows it by doubling, and past sparseMax it is a full block. Every array
// a buffer makes comes from its file's ImagePool, and a client's payload
// from the same pool.
//
// CoW semantics during a consistency point (paper §II-C): when a CP freezes
// a dirty buffer, the buffer is marked inCP. If a client overwrites the
// buffer while it is inCP and not yet cleaned, the pre-overwrite image is
// preserved as the CP image and the live image (data) becomes the
// overwrite's array; the change lands in the *next* CP. A preserved image
// lives outside the buffer, in its image pool's side home (cpImages), and
// the buffer's preserved flag says it has one: few buffers ever do, and a
// CP that cleans a prefill holds hundreds of thousands of buffers. Once the
// cleaner has submitted the buffer's CP image for writing, the buffer is
// sealed if the submitted array is its own: the drive media references it
// and it must never be mutated, so the next modification goes to a new
// array. An indirect is always submitted as its own array (a sparse one cut
// to its trimmed length) and sealed; a sparse metafile L0 is submitted as a
// trimmed copy instead (MarkCleaned) and stays unsealed. A sealed CP-owned
// array the buffer moves off, a clean user L0's array when its buffer
// leaves the tree at commit, and a sealed user L0's array a client
// overwrite leaves become media-only: the media marks them at the buffer's
// VBN, and they go back to the pool when the media drops them. A preserved
// CP image is written media-only, and an overwritten payload only its NVLog
// record holds goes back when the record's log half is freed (handBack).
//
// The struct is 64 bytes (TestBufferSize): a dirty block's host cost.
type Buffer struct {
	f    *File // the file whose tree holds the buffer
	fbn  block.FBN
	data []byte // live image

	level     uint8 // tree level, at most MaxHeight
	inCP      bool  // frozen into the running CP, not yet cleaned
	preserved bool  // overwritten while inCP: the CP image is in cpImages
	sealed    bool  // live image is aliased by storage; never mutate it
	adopted   bool  // live image is the array WriteBlock was given; never mutate it

	dirtyCurr   bool // dirty in the open (accepting) generation
	dirtyFrozen bool // dirty in the freezing CP's set

	vvbn block.VVBN // current on-disk virtual location (InvalidVVBN if none)
	vbn  block.VBN  // current on-disk physical location (InvalidVBN if none)
}

// sparseMax is the longest trimmed image, in bytes, with which a CP-owned
// image goes to storage short: a sparse indirect as its buffer's array cut
// to its trimmed length, a sparse metafile L0 as a private trimmed copy. It
// is also the longest short array an indirect keeps. Every indirect has
// some zero tail (the high bytes of a VBN are zero), and a short copy of a
// dense image would duplicate the array its buffer keeps anyway.
const sparseMax = block.Size / 2

// newBuffer makes b the empty buffer at (level, fbn) of f and returns it.
// The image pool is its one caller (ImagePool.buffer).
func newBuffer(b *Buffer, f *File, fbn block.FBN, level int) *Buffer {
	*b = Buffer{f: f, fbn: fbn, level: uint8(level), vvbn: block.InvalidVVBN, vbn: block.InvalidVBN}
	return b
}

// FBN returns the buffer's file block number (for level > 0, the lowest FBN
// it covers).
func (b *Buffer) FBN() block.FBN { return b.fbn }

// Level returns the buffer's tree level (0 = data).
func (b *Buffer) Level() int { return int(b.level) }

// Index returns the buffer's position within its level (its FBN for an L0):
// (Level, Index) names the block in the tree.
func (b *Buffer) Index() block.FBN { return b.fbn >> (radixBits * uint(b.level)) }

// VVBN returns the buffer's current on-disk virtual address.
func (b *Buffer) VVBN() block.VVBN { return b.vvbn }

// VBN returns the buffer's current on-disk physical address.
func (b *Buffer) VBN() block.VBN { return b.vbn }

// Data returns the live image for reading, materialising the zero block of
// an L0 nobody has written yet. An indirect's image is as long as its
// pointers need, nil with none; PtrAt reads it as its padded twin. Callers
// must not mutate it; clients overwrite through File.WriteBlock, CP-side
// code through CPMutableData and CleanChild.
func (b *Buffer) Data() []byte {
	if b.data == nil && b.level == 0 {
		b.data = b.f.pool.full(nil)
	}
	return b.data
}

// cpOwned reports whether the buffer's image is CP-owned: an indirect block
// or a metafile L0, which only CP-side code writes. Only such an image is
// ever trimmed for the media or padded on install.
func (b *Buffer) cpOwned() bool { return b.level > 0 || b.f.metafile }

// cpImage returns the image that belongs to the running CP: the preserved
// pre-overwrite image if the buffer was overwritten while frozen, otherwise
// the live image.
func (b *Buffer) cpImage() []byte {
	if b.preserved {
		return b.f.cpImages().at(b)
	}
	return b.Data()
}

// replace adopts data as the live image — a client's whole-block overwrite
// in the open generation — and reports whether the old image had to be left
// behind: to the running CP if the buffer is frozen and not yet preserved,
// to the media if it is sealed. No image is ever overwritten in place. A
// sealed payload is marked media-only at the buffer's VBN once the CP's
// write of it has landed; a media image a load adopted stays unmarked, as
// it may be a crashed aggregate's. Any other adopted image, an earlier
// overwrite's, is held by its NVLog record alone from here on, and goes on
// the hand-back list.
func (b *Buffer) replace(data []byte) (cowed bool) {
	switch {
	case b.inCP && !b.preserved:
		b.f.cpImages().keep(b, b.Data())
		b.preserved, cowed = true, true
	case b.sealed:
		if b.adopted {
			b.f.pool.leaveSealed(b.vbn, b.data)
		}
		cowed = true
	case b.adopted:
		b.f.pool.logOnly(b.data)
	}
	b.data, b.sealed, b.adopted = data, false, true
	return cowed
}

// CPMutableData returns the running CP's image of an L0 for mutation by
// CP-side code (the infrastructure updating allocation-metafile bits,
// inode-record serialization). Unlike a client overwrite, a modification
// through this method belongs to the *current* CP. The returned array is
// always full-length. An indirect is written by CleanChild alone, through
// ptrs, never through this method.
//
// Metafile buffers are mutated only by CP-side code, so their CP image and
// live image are the same array and updates are visible to both; the
// method copies if storage aliases the live image (sealed), if a client
// write gave it (adopted: the NVLog record holds it too), or if it is
// shorter than a block. A sealed CP-owned array it leaves is marked
// media-only at the buffer's VBN.
func (b *Buffer) CPMutableData() []byte {
	if b.preserved {
		return b.f.cpImages().at(b)
	}
	if b.sealed || b.adopted || len(b.data) < block.Size {
		old, left := b.data, b.sealed && !b.adopted && b.cpOwned()
		b.data = b.f.pool.full(old)
		if left {
			b.f.pool.leave(b.vbn, old)
		}
		b.sealed, b.adopted = false, false
	}
	return b.data
}

// freeze moves the buffer's open-generation dirtiness into the freezing CP.
func (b *Buffer) freeze() {
	b.inCP = true
	b.dirtyFrozen = true
	b.dirtyCurr = false
}

// MarkCleaned records that the cleaner is submitting the CP image at the new
// location (vvbn, vbn). It returns the image to write, which storage keeps,
// whether to write it marked media-only (storage.WriteReq.MediaOnly), and the
// previous location for freeing; the buffer leaves the CP.
//
// This is where sealing is decided. An indirect is handed out as the
// buffer's own array — cut to its trimmed length if that is sparseMax bytes
// or fewer, whole otherwise — which seals the buffer: the next CP's ptrs
// copies it. If the buffer was still sealed, its old array stays at the old
// DBN, marked media-only, and the buffer first moves to a fresh one, so no
// array sits at two DBNs. An indirect without pointers goes out empty and
// holds no array on the media. A metafile L0 that trims to sparseMax bytes
// or fewer is handed out as a trimmed private copy, written media-only, and
// the buffer stays unsealed: the next CP updates it in place; a dense one
// goes out as the buffer's array, the same way as an indirect. Any other
// image, a client's adopted L0 among them, is handed out as is, and if it
// is the live image the buffer is sealed. A user L0's preserved CP image is
// written media-only, as a trimmed copy is: the buffer has let go of it, and
// its NVLog record is freed at this CP's commit, while its DBN cannot be
// forgotten before the commit after next.
func (b *Buffer) MarkCleaned(vvbn block.VVBN, vbn block.VBN) (img []byte, mediaOnly bool, oldVVBN block.VVBN, oldVBN block.VBN) {
	oldVVBN, oldVBN = b.vvbn, b.vbn
	b.vvbn, b.vbn = vvbn, vbn
	img = b.cpImage()
	switch {
	case b.level > 0:
		img = b.sharePtrs(oldVBN)
	case b.cpOwned() && !b.adopted:
		trimmed := block.Trim(img)
		switch {
		case len(trimmed) <= sparseMax:
			img, mediaOnly = b.f.pool.mediaCopy(trimmed)
		case b.sealed:
			img = b.reseal(oldVBN)
		default:
			b.sealed = true
		}
	case !b.preserved:
		b.sealed = true
	default:
		mediaOnly = b.f.pool != nil
	}
	if b.preserved {
		b.f.cpImages().drop(b)
		b.preserved = false
	}
	b.inCP = false
	b.dirtyFrozen = false
	return img, mediaOnly, oldVVBN, oldVBN
}

// ptrs returns indirect b's image for CleanChild to write a pointer into,
// at least need bytes long. While the array is the buffer's alone it writes
// in place, extending the array up to its capacity (its size class; the
// bytes past its length are garbage until then). Otherwise it moves to a
// fresh array from the pool: as long as it needs when storage aliases the
// old one (sealed), the copy-on-seal that the next CP's first pointer pays,
// and grown by ptrsLen past the old one's capacity. A sealed array it leaves
// is marked media-only at the buffer's VBN; a private one goes straight back
// to the pool.
func (b *Buffer) ptrs(need int) []byte {
	n := len(b.data)
	if !b.sealed && need <= cap(b.data) {
		if need > n {
			b.data = b.data[:need]
			clear(b.data[n:])
		}
		return b.data
	}
	size := max(n, need)
	if size > cap(b.data) {
		size = ptrsLen(cap(b.data), size)
	}
	old := b.data
	b.data = b.f.pool.copyOf(old, size)
	if b.sealed {
		b.f.pool.leave(b.vbn, old)
	} else {
		b.f.pool.recycle(old)
	}
	b.sealed = false
	return b.data
}

// sharePtrs returns indirect b's image for the media, sealing b: its own
// array, cut to its trimmed length when that is sparseMax or less. A sealed
// b first leaves its array at old, its previous VBN.
func (b *Buffer) sharePtrs(old block.VBN) []byte {
	t := len(block.Trim(b.data))
	switch {
	case t == 0:
		return []byte{}
	case b.sealed:
		b.reseal(old)
	}
	b.sealed = true
	if t <= sparseMax {
		return b.data[:t:t]
	}
	return b.data
}

// reseal moves sealed buffer b, re-cleaned unchanged, to a fresh copy of its
// array and returns it: the old array stays at vbn, b's previous VBN, alone
// and marked media-only.
func (b *Buffer) reseal(vbn block.VBN) []byte {
	old := b.data
	b.data = b.f.pool.copyOf(old, len(old))
	b.f.pool.leave(vbn, old)
	return b.data
}
