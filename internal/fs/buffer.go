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
// its blocks through a trie shaped like the indirect tree (node). A user L0
// is a word in its level-1 node, and bitmaps in the nodes, rolled up the
// trie, are the dirty sets of every block: Freeze moves a user file's word
// by word, DirtyIntoCP sets the bits on a CP-owned buffer's path, and the
// cleaner walks every level in index order (File.NextFrozen). DESIGN.md §15
// has the invariants.
package fs

import (
	"wafl/internal/block"
)

// Buffer is the in-memory image of one CP-owned block of a file: an
// indirect block (level > 0) or a metafile L0. A user L0 has no buffer: it
// is a word in its level-1 index node (node.words, DESIGN §15). Buffers stay
// in their trees.
//
// An indirect's array is only as long as its pointers need (nil with none),
// grown by doubling up to a full indirect's half block (CleanChild); a
// metafile L0 gets an array of its file's L0 length (File.L0Len) when first
// read (Data) or mutated (CPMutableData). Every array a buffer makes comes
// from its file's ImagePool.
//
// Once the cleaner submits the buffer's image the buffer is sealed: the
// media holds it, so the next modification goes to a new array
// (MarkCleaned has the cases). A sealed array the buffer moves off becomes
// media-only: the media marks it at the buffer's VBN, and it goes back to
// the pool when the media drops it.
//
// The struct is 64 bytes (TestBufferSize).
type Buffer struct {
	f    *File // the file whose tree holds the buffer
	fbn  block.FBN
	data []byte // live byte image

	level  uint8 // tree level, at most MaxHeight
	inCP   bool  // dirty in the running CP, not yet cleaned
	sealed bool  // live image is aliased by storage; never mutate it

	vvbn block.VVBN // current on-disk virtual location (InvalidVVBN if none)
	vbn  block.VBN  // current on-disk physical location (InvalidVBN if none)
}

// FBN returns the buffer's file block number (for level > 0, the lowest FBN
// it covers).
func (b *Buffer) FBN() block.FBN { return b.fbn }

// Level returns the buffer's tree level (0 = data).
func (b *Buffer) Level() int { return int(b.level) }

// Index returns the buffer's position within its level (its FBN for an L0):
// (Level, Index) names the block in the tree.
func (b *Buffer) Index() block.FBN { return b.fbn >> (radixBits * uint(b.level)) }

// VBN returns the buffer's current on-disk physical address.
func (b *Buffer) VBN() block.VBN { return b.vbn }

// Data returns the live byte image for reading, materialising the zero
// image, of its file's L0 length, of a metafile L0 nobody has written yet.
// An indirect's image is as long as its pointers need, nil with none; PtrAt
// reads it as its padded twin. Callers must not mutate it; CP-side code
// writes through CPMutableData and CleanChild.
func (b *Buffer) Data() []byte {
	if b.data == nil && b.level == 0 {
		b.data = b.f.pool.copyOf(nil, b.f.l0Len)
	}
	return b.data
}

// CPMutableData returns a metafile L0's image for mutation by CP-side code
// (the infrastructure updating allocation-metafile bits, inode-record
// serialization): a modification belongs to the running CP. The returned
// array is always its file's L0 length (File.L0Len). An indirect is written
// by CleanChild alone, through ptrs, never through this method.
//
// The CP image and the live image are the same array, so updates are
// visible to both; the method copies if storage aliases the live image
// (sealed) or if it is shorter than that. A sealed array it leaves is
// marked media-only at the buffer's VBN.
func (b *Buffer) CPMutableData() []byte {
	if b.sealed || len(b.data) < b.f.l0Len {
		old, left := b.data, b.sealed
		b.data = b.f.pool.copyOf(old, b.f.l0Len)
		if left {
			b.f.pool.leave(b.vbn, old)
		}
		b.sealed = false
	}
	return b.data
}

// MarkCleaned records that the cleaner is submitting the buffer's image at
// the new location (vvbn, vbn). It returns the image to write, which storage
// keeps, whether to write it marked media-only (storage.WriteReq.MediaOnly),
// and the previous location for freeing; the buffer leaves the CP.
//
// This is where sealing is decided. An indirect is handed out as the
// buffer's own array cut to its trimmed length, which seals the buffer: the
// next CP's ptrs copies it. If the buffer was still sealed, its old array
// stays at the old DBN, marked media-only, and the buffer first moves to a
// fresh one, so no array sits at two DBNs. An indirect without pointers
// goes out empty and holds no array on the media. A metafile L0 that trims
// to half its file's L0 length or less is sparse: it is handed out as a
// trimmed private copy, written media-only, and the buffer stays unsealed,
// so the next CP updates it in place. A dense one goes out as the buffer's
// array, the same way as an indirect: a short copy of it would duplicate
// the array the buffer keeps anyway. An indirect needs no such rule, as its
// pointers fill at most half a block.
func (b *Buffer) MarkCleaned(vvbn block.VVBN, vbn block.VBN) (img block.Image, mediaOnly bool, oldVVBN block.VVBN, oldVBN block.VBN) {
	oldVVBN, oldVBN = b.vvbn, b.vbn
	b.vvbn, b.vbn = vvbn, vbn
	if b.level > 0 {
		img.Bytes = b.sharePtrs(oldVBN)
	} else {
		img.Bytes = b.Data()
		trimmed := block.Trim(img.Bytes)
		switch {
		case len(trimmed) <= b.f.l0Len/2:
			img.Bytes, mediaOnly = b.f.pool.mediaCopy(trimmed)
		case b.sealed:
			img.Bytes = b.reseal(oldVBN)
		default:
			b.sealed = true
		}
	}
	b.inCP = false
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
// array, cut to its trimmed length. A sealed b first leaves its array at
// old, its previous VBN.
func (b *Buffer) sharePtrs(old block.VBN) []byte {
	t := len(block.Trim(b.data))
	switch {
	case t == 0:
		return []byte{}
	case b.sealed:
		b.reseal(old)
	}
	b.sealed = true
	return b.data[:t:t]
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
