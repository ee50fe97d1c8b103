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
// Images follow the internal/block rule: a []byte of len <= block.Size
// whose missing tail reads as zero. A user L0 buffer holds the very array
// the client wrote (WriteBlock adopts it; the NVLog record shares it), at
// whatever length it was written; nothing is allocated until a buffer is
// first read (Data) or mutated CP-side (CPMutableData), and both of those
// hand metafile and indirect code a full-length array.
//
// CoW semantics during a consistency point (paper §II-C): when a CP freezes
// a dirty buffer, the buffer is marked inCP. If a client overwrites the
// buffer while it is inCP and not yet cleaned, the pre-overwrite image is
// preserved as the CP image (cpData) and the live image (data) becomes the
// overwrite's array; the change lands in the *next* CP. Once the cleaner has
// submitted the buffer's CP image for writing, the buffer is sealed if the
// submitted array is its own: the drive media references it and it must
// never be mutated, so the next modification goes to a new array. A sparse
// CP-owned image (an indirect block or a metafile L0) is submitted as a
// trimmed copy instead (MarkCleaned) and stays unsealed.
type Buffer struct {
	fbn   block.FBN
	level int

	data    []byte // live image
	cpData  []byte // frozen CP image, set only if modified while inCP
	inCP    bool   // frozen into the running CP, not yet cleaned
	sealed  bool   // live image is aliased by storage; never mutate it
	adopted bool   // live image is the array WriteBlock was given; never mutate it

	dirtyCurr   bool // dirty in the open (accepting) generation
	dirtyFrozen bool // dirty in the freezing CP's set

	vvbn block.VVBN // current on-disk virtual location (InvalidVVBN if none)
	vbn  block.VBN  // current on-disk physical location (InvalidVBN if none)
}

// sparseMax is the longest trimmed image, in bytes, with which a CP-owned
// image — an indirect block or a metafile L0, never a client's adopted
// array — goes to storage as a private copy rather than as its buffer's
// array. Every indirect has some zero tail (the high bytes of a VBN are
// zero), and copying a dense image would duplicate the array its buffer
// keeps anyway.
const sparseMax = block.Size / 2

func newBuffer(fbn block.FBN, level int) *Buffer {
	return &Buffer{
		fbn:   fbn,
		level: level,
		vvbn:  block.InvalidVVBN,
		vbn:   block.InvalidVBN,
	}
}

// FBN returns the buffer's file block number (for level > 0, the lowest FBN
// it covers).
func (b *Buffer) FBN() block.FBN { return b.fbn }

// Level returns the buffer's tree level (0 = data).
func (b *Buffer) Level() int { return b.level }

// Index returns the buffer's position within its level (its FBN for an L0):
// (Level, Index) names the block in the tree.
func (b *Buffer) Index() block.FBN { return b.fbn >> (radixBits * uint(b.level)) }

// VVBN returns the buffer's current on-disk virtual address.
func (b *Buffer) VVBN() block.VVBN { return b.vvbn }

// VBN returns the buffer's current on-disk physical address.
func (b *Buffer) VBN() block.VBN { return b.vbn }

// DirtyCurr reports whether the buffer is dirty in the open generation.
func (b *Buffer) DirtyCurr() bool { return b.dirtyCurr }

// DirtyFrozen reports whether the buffer is dirty in the freezing CP's set.
func (b *Buffer) DirtyFrozen() bool { return b.dirtyFrozen }

// Data returns the live image for reading, materialising the zero block of
// a buffer nobody has written yet. Callers must not mutate it; clients
// overwrite through File.WriteBlock, CP-side code through CPMutableData.
func (b *Buffer) Data() []byte {
	if b.data == nil {
		b.data = block.New()
	}
	return b.data
}

// cpImage returns the image that belongs to the running CP: the preserved
// pre-overwrite image if the buffer was overwritten while frozen, otherwise
// the live image.
func (b *Buffer) cpImage() []byte {
	if b.cpData != nil {
		return b.cpData
	}
	return b.Data()
}

// replace adopts data as the live image — a client's whole-block overwrite
// in the open generation — and reports whether the old image had to be left
// behind: to the running CP if the buffer is frozen and not yet preserved,
// to the media if it is sealed. No image is ever overwritten in place.
func (b *Buffer) replace(data []byte) (cowed bool) {
	if b.inCP && b.cpData == nil {
		b.cpData = b.Data()
		cowed = true
	} else if b.sealed {
		cowed = true
	}
	b.data, b.sealed, b.adopted = data, false, true
	return cowed
}

// CPMutableData returns the running CP's image for mutation by CP-side code
// (the cleaner updating a parent indirect's child pointers, the
// infrastructure updating allocation-metafile bits, inode-record
// serialization). Unlike a client overwrite, a modification through this
// method belongs to the *current* CP. The returned array is always
// full-length.
//
// Indirect and metafile buffers are mutated only by CP-side code, so their
// CP image and live image are the same array and updates are visible to
// both; the method clones if storage aliases the live image (sealed), if a
// client write gave it (adopted: the NVLog record holds it too), or if it is
// shorter than a block.
func (b *Buffer) CPMutableData() []byte {
	if b.cpData != nil {
		return b.cpData
	}
	if b.sealed || b.adopted || len(b.data) < block.Size {
		b.data = block.Clone(b.data)
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
// and the previous location for freeing; the buffer leaves the CP.
//
// This is where sealing is decided. A CP-owned image (not adopted: an
// indirect block or a metafile L0) that trims to sparseMax bytes or fewer is
// handed out as a trimmed private copy, and the buffer stays unsealed: the
// next CP updates it in place. Any other image, a client's adopted L0 among
// them, is handed out as is, and if it is the live image the buffer is
// sealed (the media now references that array).
func (b *Buffer) MarkCleaned(vvbn block.VVBN, vbn block.VBN) (img []byte, oldVVBN block.VVBN, oldVBN block.VBN) {
	oldVVBN, oldVBN = b.vvbn, b.vbn
	b.vvbn, b.vbn = vvbn, vbn
	img = b.cpImage()
	var trimmed []byte
	if !b.adopted {
		trimmed = block.Trim(img)
	}
	switch {
	case !b.adopted && len(trimmed) <= sparseMax:
		img = append([]byte{}, trimmed...) // never nil: nil media is a block never written
	case b.cpData == nil:
		b.sealed = true
	}
	b.cpData = nil
	b.inCP = false
	b.dirtyFrozen = false
	return img, oldVVBN, oldVBN
}
