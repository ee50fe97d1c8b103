// Package block defines the fundamental storage addressing types and block
// helpers shared by every layer of the system: physical volume block numbers
// (VBNs) in the aggregate space, virtual volume block numbers (VVBNs) in a
// FlexVol's space, file block numbers (FBNs) within a file, and fixed-size
// 4 KiB blocks with checksums.
//
// A block image is a []byte of len <= Size whose missing tail reads as
// zero; nil is the all-zero block. Checksum, Equal, XOR and GetPtr treat an
// image and its Size-padded twin alike; Clone materialises the tail.
package block

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// Size is the file system block size in bytes (4 KiB, as in WAFL).
const Size = 4096

// VBN is a physical volume block number: an address in the aggregate's
// block space, mapped onto a (RAID group, drive, disk block) location.
type VBN uint64

// VVBN is a virtual volume block number: an address within a single FlexVol
// volume's block space.
type VVBN uint64

// FBN is a file block number: the index of a 4 KiB block within a file.
type FBN uint64

// DBN is a disk block number: the index of a block within a single drive.
type DBN uint64

// Invalid sentinel values for each address space.
const (
	InvalidVBN  VBN  = ^VBN(0)
	InvalidVVBN VVBN = ^VVBN(0)
	InvalidDBN  DBN  = ^DBN(0)
)

func (v VBN) String() string {
	if v == InvalidVBN {
		return "vbn:invalid"
	}
	return fmt.Sprintf("vbn:%d", uint64(v))
}

func (v VVBN) String() string {
	if v == InvalidVVBN {
		return "vvbn:invalid"
	}
	return fmt.Sprintf("vvbn:%d", uint64(v))
}

// PtrSize is the on-disk size of a block pointer entry in an indirect block:
// a (VVBN, VBN) pair. WAFL indirect blocks store dual addresses so that
// reads can go straight to physical storage while the volume remains
// logically relocatable.
const PtrSize = 16

// PtrsPerBlock is the fan-out of an indirect block.
const PtrsPerBlock = Size / PtrSize // 256

// zeros is the chunk Trim compares a zero tail against.
var zeros [256]byte

// Trim returns image p without its trailing zero bytes: the one form every
// image of the same block content shares. It cuts the tail 256 bytes at a
// time while it can, then a word, then a byte at a time.
func Trim(p []byte) []byte {
	for len(p) >= len(zeros) && bytes.Equal(p[len(p)-len(zeros):], zeros[:]) {
		p = p[:len(p)-len(zeros)]
	}
	for len(p) >= 8 && binary.LittleEndian.Uint64(p[len(p)-8:]) == 0 {
		p = p[:len(p)-8]
	}
	for len(p) > 0 && p[len(p)-1] == 0 {
		p = p[:len(p)-1]
	}
	return p
}

// Equal reports whether images a and b hold the same block content.
func Equal(a, b []byte) bool { return bytes.Equal(Trim(a), Trim(b)) }

// Checksum returns a 64-bit FNV-1a checksum of block image p (of its
// trimmed form, so the zero tail never counts). It stands in for the
// per-block checksums a production file system computes on every write; its
// cost is charged to the simulated CPU by callers via the cost model.
func Checksum(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range Trim(p) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// New allocates a zeroed block.
func New() []byte { return make([]byte, Size) }

// Clone returns a full-length copy of image p (padding or truncating to
// Size).
func Clone(p []byte) []byte {
	b := make([]byte, Size)
	copy(b, p)
	return b
}

// PutPtr encodes the pointer pair (vvbn, vbn) at entry index i of indirect
// block b.
func PutPtr(b []byte, i int, vvbn VVBN, vbn VBN) {
	off := i * PtrSize
	binary.LittleEndian.PutUint64(b[off:], uint64(vvbn))
	binary.LittleEndian.PutUint64(b[off+8:], uint64(vbn))
}

// GetPtr decodes the pointer pair at entry index i of indirect block image
// b. Like every image, b may be short: the bytes of an entry past its end
// read as zero, so an entry wholly past it is a hole.
func GetPtr(b []byte, i int) (VVBN, VBN) {
	var e [PtrSize]byte
	if off := i * PtrSize; off < len(b) {
		copy(e[:], b[off:])
	}
	return VVBN(binary.LittleEndian.Uint64(e[:])), VBN(binary.LittleEndian.Uint64(e[8:]))
}

// XOR accumulates image src into dst (dst ^= src), used for RAID parity.
// dst must be at least as long as src; src's zero tail leaves dst untouched.
func XOR(dst, src []byte) {
	subtle.XORBytes(dst, dst[:len(src)], src)
}
