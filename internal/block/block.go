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
	"math/bits"
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
// a (VVBN, VBN) pair of 32-bit address entries (PutAddr). WAFL indirect
// blocks store dual addresses so that reads can go straight to physical
// storage while the volume remains logically relocatable. No address space reaches AddrLimit
// blocks (NewSystem refuses a geometry that would, the bound of WAFL's
// 32-bit aggregates), so 32 bits hold every address.
const PtrSize = 2 * AddrSize

// PtrsPerBlock is the fan-out of an indirect block. It is fixed, not
// Size/PtrSize, so a full indirect's image is half a block.
const PtrsPerBlock = 256

// AddrLimit bounds the addresses an address entry holds: every real VBN and
// VVBN is below it, and its 32-bit pattern is the entry of InvalidVVBN and
// InvalidVBN.
const AddrLimit = 1<<32 - 1

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

// Classes is the number of size classes an image array comes in: 16-byte
// steps up to 256 bytes, then eight steps per doubling up to a block.
const Classes = 48

// Class returns the size class of an n-byte image array, 0 < n <= Size, and
// the class's capacity, which is at least n and at most an eighth more above
// 128 bytes. The image pool (fs.ImagePool) keeps a free list per class, and
// an image the media holds alone has an array of at least its class's
// capacity (storage.Drive.Owned).
func Class(n int) (c, capacity int) {
	shift := max(bits.Len(uint(n-1))-4, 4)
	k := (n - 1) >> shift
	return 8*shift - 32 + k, (k + 1) << shift
}

// ClassCap is the capacity of class c.
func ClassCap(c int) int {
	if c < 16 {
		return (c + 1) << 4
	}
	return (c%8 + 9) << (c/8 + 3)
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

// AddrSize is the on-disk size of a 32-bit address entry: each half of a
// block pointer, and a container-map entry (a PVBN).
const AddrSize = 4

// PutAddr encodes address a as the 32-bit entry at index i of image b:
// AddrLimit for the invalid sentinel. Any other address >= AddrLimit is an
// invariant violation, and panics.
func PutAddr(b []byte, i int, a uint64) {
	binary.LittleEndian.PutUint32(b[i*AddrSize:], narrow(a))
}

// GetAddr decodes the 32-bit address entry at index i of image b; the
// sentinel entry reads as the all-ones invalid address. Like every image, b
// may be short: the bytes of an entry past its end read as zero.
func GetAddr(b []byte, i int) uint64 {
	var e [AddrSize]byte
	if off := i * AddrSize; off < len(b) {
		copy(e[:], b[off:])
	}
	return widen(binary.LittleEndian.Uint32(e[:]))
}

// PutPtr encodes the pointer pair (vvbn, vbn) at entry index i of indirect
// block b, each as a 32-bit address entry.
func PutPtr(b []byte, i int, vvbn VVBN, vbn VBN) {
	PutAddr(b, 2*i, uint64(vvbn))
	PutAddr(b, 2*i+1, uint64(vbn))
}

// GetPtr decodes the pointer pair at entry index i of indirect block image
// b. An entry wholly past the end of a short b is a hole.
func GetPtr(b []byte, i int) (VVBN, VBN) {
	return VVBN(GetAddr(b, 2*i)), VBN(GetAddr(b, 2*i+1))
}

// narrow returns address a's 32-bit entry: AddrLimit for the invalid
// sentinel (InvalidVVBN and InvalidVBN are both all ones).
func narrow(a uint64) uint32 {
	switch {
	case a == uint64(InvalidVBN):
		return AddrLimit
	case a >= AddrLimit:
		// Invariant violation: NewSystem refuses every geometry with an
		// address this large, so some layer made one up.
		panic(fmt.Sprintf("block: address %d does not fit a 32-bit address entry", a))
	}
	return uint32(a)
}

// widen is narrow's inverse.
func widen(e uint32) uint64 {
	if e == AddrLimit {
		return uint64(InvalidVBN)
	}
	return uint64(e)
}

// XOR accumulates image src into dst (dst ^= src), used for RAID parity.
// dst must be at least as long as src; src's zero tail leaves dst untouched.
func XOR(dst, src []byte) {
	subtle.XORBytes(dst, dst[:len(src)], src)
}
