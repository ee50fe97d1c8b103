package fs

import (
	"fmt"

	"wafl/internal/block"
)

// Media is the committed block store a file's tree is read from: the image
// at vbn, read untimed, or nil if it was never written.
type Media interface {
	ReadVBNRaw(vbn block.VBN) []byte
}

// hole reports whether a child pointer addresses no block.
func hole(vbn block.VBN) bool { return vbn == 0 || vbn == block.InvalidVBN }

// Walk visits f's committed tree under its root pointer in pre-order: the
// root, then each non-hole entry of an indirect block, in slot order, with
// its subtree. fn returns the block's image, read or not as the caller
// decides: Walk descends into an indirect's image, and nil prunes.
func (f *File) Walk(fn func(level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) []byte) {
	if f.RootVBN != block.InvalidVBN {
		walk(fn, f.height, 0, f.RootVVBN, f.RootVBN)
	}
}

func walk(fn func(int, block.FBN, block.VVBN, block.VBN) []byte, level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) {
	img := fn(level, idx, vvbn, vbn)
	if level == 0 {
		return
	}
	for i := range block.PtrsPerBlock {
		if cvv, cvbn := block.GetPtr(img, i); !hole(cvbn) {
			walk(fn, level-1, idx<<radixBits|block.FBN(i), cvv, cvbn)
		}
	}
}

// Resolve returns the committed address of f's block fbn, ok=false for a
// hole. First it installs each indirect block of fbn's path that is on the
// media but not resident, so cleaning an overwrite updates the real parents;
// a resident indirect is taken as it is.
func (f *File) Resolve(fbn block.FBN, media Media) (vvbn block.VVBN, vbn block.VBN, ok bool) {
	onMedia := f.RootVBN != block.InvalidVBN
	if onMedia && f.root.buf == nil {
		f.load(media, f.height, 0, f.RootVVBN, f.RootVBN)
	}
	for level := f.height; onMedia && level > 1; level-- {
		parent := f.Buffer(level, fbn>>(radixBits*uint(level)))
		if parent == nil {
			break // hole higher up: nothing persisted below
		}
		idx := fbn >> (radixBits * uint(level-1))
		if f.Buffer(level-1, idx) == nil {
			if cvv, cvbn := PtrAt(parent, digit(0, fbn, level)); !hole(cvbn) {
				f.load(media, level-1, idx, cvv, cvbn)
			}
		}
	}
	if l1 := f.Buffer(1, fbn>>radixBits); l1 != nil {
		vvbn, vbn = PtrAt(l1, digit(0, fbn, 1))
	}
	return vvbn, vbn, !hole(vbn)
}

// load installs the block the tree points at (level, idx) from the media;
// one never written is an invariant violation.
func (f *File) load(media Media, level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) {
	data := media.ReadVBNRaw(vbn)
	if data == nil {
		panic(fmt.Sprintf("fs: ino %d block (level %d, index %d) at %v unreadable", f.ino, level, idx, vbn))
	}
	f.InstallBuffer(level, idx, data, vvbn, vbn)
}

// ReadTree reads FBN fbn of the frozen file described by rec, walking the
// committed media image through the read callback (typically an untimed or
// timed aggregate block read). Snapshot trees are never resident in buffer
// caches — the walk touches media at every level. A nil return means a hole
// in the snapshot image.
func ReadTree(read func(block.VBN) []byte, rec Record, fbn block.FBN) []byte {
	if rec.RootVBN == block.InvalidVBN {
		return nil
	}
	vbn := rec.RootVBN
	for level := int(rec.Height); level > 0; level-- {
		data := read(vbn)
		if data == nil {
			return nil
		}
		_, cvbn := block.GetPtr(data, digit(0, fbn, level))
		if hole(cvbn) {
			return nil
		}
		vbn = cvbn
	}
	return read(vbn)
}
