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
	"fmt"

	"wafl/internal/block"
)

// Buffer is the in-memory image of one block of a file, at any tree level
// (level 0 = user/metafile data, higher levels = indirect blocks).
//
// Indirect and metafile buffers stay in their tree. A user L0 buffer lives
// only while its block is dirty or in a CP: it comes from its aggregate's
// free list (ImagePool) and goes back when the CP that cleaned it commits
// (File.DropClean); the block stays resident (node.held), its content its
// media image, read through its resident L1.
//
// A user L0 in an aggregate holds its image by name (WriteImage), as its
// NVLog record and later the media do. Every other image is a []byte under
// the internal/block rule. A user L0 written as bytes holds the caller's
// array (WriteBlock adopts it); an L0 gets a full-length array when first
// read (Data) or mutated CP-side (CPMutableData); an indirect's array is
// only as long as its pointers need (nil with none), grown by doubling up
// to a full block past sparseMax (CleanChild). Every array a buffer makes
// comes from its file's ImagePool.
//
// CoW during a consistency point (paper §II-C): a client overwrite of a
// frozen buffer (inCP) not yet cleaned keeps the pre-overwrite image, a
// name or bytes, as the CP image in the image pool's side home (cpImages);
// the overwrite lands in the *next* CP. Once the cleaner submits the
// buffer's live image the buffer is sealed: the media holds it, so the next
// modification goes to a new array (MarkCleaned has the cases). A sealed
// CP-owned array the buffer moves off becomes media-only: the media marks
// it at the buffer's VBN, and it goes back to the pool when the media
// drops it.
//
// The struct is 72 bytes (TestBufferSize): a dirty block's host cost.
type Buffer struct {
	f    *File // the file whose tree holds the buffer
	fbn  block.FBN
	data []byte     // live byte image
	name block.Name // live image by name; 0 for a byte image

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

// Data returns the live byte image for reading, materialising the zero
// block of an L0 nobody has written yet. An indirect's image is as long as
// its pointers need, nil with none; PtrAt reads it as its padded twin. A
// buffer whose image is a name has no bytes: Image returns it. Callers must
// not mutate it; clients overwrite through File.WriteBlock, CP-side code
// through CPMutableData and CleanChild.
func (b *Buffer) Data() []byte {
	if b.data == nil && b.level == 0 && b.name == 0 {
		b.data = b.f.pool.full(nil)
	}
	return b.data
}

// Image returns the live image by value: its name, or its bytes (Data).
func (b *Buffer) Image() block.Image {
	if b.name != 0 {
		return block.Image{Name: b.name}
	}
	return block.Image{Bytes: b.Data()}
}

// cpOwned reports whether the buffer's image is CP-owned: an indirect block
// or a metafile L0, which only CP-side code writes. Only such an image is
// ever trimmed for the media or padded on install.
func (b *Buffer) cpOwned() bool { return b.level > 0 || b.f.metafile }

// cpImage returns the image that belongs to the running CP: the preserved
// pre-overwrite image if the buffer was overwritten while frozen, otherwise
// the live image.
func (b *Buffer) cpImage() block.Image {
	if b.preserved {
		return b.f.cpImages().at(b)
	}
	return b.Image()
}

// replace makes img the live image — a client's whole-block overwrite in
// the open generation — and reports whether the old image had to be left
// behind: to the running CP if the buffer is frozen and not yet preserved,
// to the media if it is sealed. No image is ever overwritten in place. A
// byte image is adopted, not copied.
func (b *Buffer) replace(img block.Image) (cowed bool) {
	switch {
	case b.inCP && !b.preserved:
		b.f.cpImages()[b] = b.Image()
		b.preserved, cowed = true, true
	case b.sealed:
		cowed = true
	}
	b.data, b.name, b.sealed, b.adopted = img.Bytes, img.Name, false, true
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
// media-only at the buffer's VBN. An L0 held by name, live or preserved,
// has no bytes to mutate.
func (b *Buffer) CPMutableData() []byte {
	if b.preserved {
		if img := b.f.cpImages().at(b); img.Name == 0 {
			return img.Bytes
		}
	}
	if b.name != 0 || b.preserved {
		panic(fmt.Sprintf("fs: CPMutableData on L0 fbn %d held by name", b.fbn))
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
// image — a user L0's name, a client's adopted array — is handed out as is,
// and if it is the live image the buffer is sealed.
func (b *Buffer) MarkCleaned(vvbn block.VVBN, vbn block.VBN) (img block.Image, mediaOnly bool, oldVVBN block.VVBN, oldVBN block.VBN) {
	oldVVBN, oldVBN = b.vvbn, b.vbn
	b.vvbn, b.vbn = vvbn, vbn
	img = b.cpImage()
	switch {
	case b.level > 0:
		img.Bytes = b.sharePtrs(oldVBN)
	case b.cpOwned() && !b.adopted:
		trimmed := block.Trim(img.Bytes)
		switch {
		case len(trimmed) <= sparseMax:
			img.Bytes, mediaOnly = b.f.pool.mediaCopy(trimmed)
		case b.sealed:
			img.Bytes = b.reseal(oldVBN)
		default:
			b.sealed = true
		}
	case !b.preserved:
		b.sealed = true
	}
	if b.preserved {
		delete(b.f.cpImages(), b)
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
