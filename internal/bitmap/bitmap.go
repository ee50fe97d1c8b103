// Package bitmap implements WAFL-style allocation bitmaps ("activemaps"):
// one bit per block of an address space (physical VBNs of an aggregate or
// virtual VVBNs of a FlexVol volume), stored in the L0 blocks of a metafile.
// Allocations and frees toggle bits through the consistency-point mutation
// path, so every change dirties the owning metafile block into the running
// CP — which is precisely the metafile-update load that the White Alligator
// infrastructure exists to parallelize (paper §III-C, §IV-B2).
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"wafl/internal/block"
	"wafl/internal/fs"
)

// BitsPerBlock is the number of block-state bits per metafile block.
const BitsPerBlock = block.Size * 8 // 32768

// Activemap is an allocation bitmap over [0, nbits) backed by a metafile.
// A set bit means the block is in use.
type Activemap struct {
	file  *fs.File
	nbits uint64
	free  uint64

	// OnChange, if set, observes every bit transition (used by the
	// aggregate to maintain per-Allocation-Area free counts).
	OnChange func(bn uint64, used bool)

	// statistics
	SetOps, ClearOps uint64
}

// New creates an all-free activemap of nbits bits backed by file, which
// becomes a metafile: the activemap writes its L0s CP-side.
func New(file *fs.File, nbits uint64) *Activemap {
	need := (nbits + BitsPerBlock - 1) / BitsPerBlock
	if need > file.MaxBlocks() {
		panic(fmt.Sprintf("bitmap: metafile too small: need %d blocks, capacity %d", need, file.MaxBlocks()))
	}
	file.SetMetafile()
	return &Activemap{file: file, nbits: nbits, free: nbits}
}

// Rebind attaches the activemap to a (re-mounted) metafile and recomputes
// the free count from its contents — the mount-time rebuild path. The
// recount is word-wise over resident metafile blocks (absent blocks are
// all-clear), not a per-bit IsSet loop, and a short image counts as its
// zero-padded twin.
func Rebind(file *fs.File, nbits uint64) *Activemap {
	a := New(file, nbits)
	used := uint64(0)
	nblocks := (nbits + BitsPerBlock - 1) / BitsPerBlock
	for fbn := block.FBN(0); uint64(fbn) < nblocks; fbn++ {
		buf := file.Buffer(0, fbn)
		if buf == nil {
			continue
		}
		d := buf.Data()
		// Bits at/after nbits in the last block are unused and must be zero
		// (Set panics past nbits), so counting whole words is safe.
		words := len(d) &^ 7
		for off := 0; off < words; off += 8 {
			used += uint64(bits.OnesCount64(binary.LittleEndian.Uint64(d[off:])))
		}
		for _, b := range d[words:] {
			used += uint64(bits.OnesCount8(b))
		}
	}
	a.free = nbits - used
	return a
}

// File returns the backing metafile.
func (a *Activemap) File() *fs.File { return a.file }

// Free returns the number of free (clear) bits.
func (a *Activemap) Free() uint64 { return a.free }

// Used returns the number of used (set) bits.
func (a *Activemap) Used() uint64 { return a.nbits - a.free }

// BlockOf returns the metafile FBN holding the bit for bn. Range affinities
// partition metafile accesses by this value.
func BlockOf(bn uint64) block.FBN { return block.FBN(bn / BitsPerBlock) }

func (a *Activemap) locate(bn uint64) (*fs.Buffer, int, byte) {
	if bn >= a.nbits {
		panic(fmt.Sprintf("bitmap: bn %d out of range %d", bn, a.nbits))
	}
	buf := a.file.GetOrCreateL0(BlockOf(bn))
	off := bn % BitsPerBlock
	return buf, int(off / 8), byte(1 << (off % 8))
}

// IsSet reports whether bn is marked in use.
func (a *Activemap) IsSet(bn uint64) bool {
	buf, byteOff, mask := a.locate(bn)
	return buf.Data()[byteOff]&mask != 0
}

// Word returns the 64-bit word starting at bit wordStart (which must be
// 64-aligned) of a bitmap metafile's content without creating the backing
// block: an absent block reads as all-clear. The read path for everything
// that must not perturb a file's buffer population — the free-space index,
// the word-wise diffs, snapshot reclaim.
func Word(f *fs.File, wordStart uint64) uint64 {
	buf := f.Buffer(0, BlockOf(wordStart))
	if buf == nil {
		return 0
	}
	byteOff := (wordStart % BitsPerBlock) / 8
	return binary.LittleEndian.Uint64(buf.Data()[byteOff:])
}

// ForEachSet calls fn for every set bit, scanning word-wise over resident
// metafile blocks (absent blocks are all-clear) — the bulk iteration path
// for mount-time rebuilds that would otherwise pay nbits buffer lookups.
func (a *Activemap) ForEachSet(fn func(bn uint64)) {
	nblocks := (a.nbits + BitsPerBlock - 1) / BitsPerBlock
	for fbn := block.FBN(0); uint64(fbn) < nblocks; fbn++ {
		buf := a.file.Buffer(0, fbn)
		if buf == nil {
			continue
		}
		d := buf.Data()
		base := uint64(fbn) * BitsPerBlock
		for off := 0; off < block.Size; off += 8 {
			w := binary.LittleEndian.Uint64(d[off:])
			for w != 0 {
				i := bits.TrailingZeros64(w)
				fn(base + uint64(off)*8 + uint64(i))
				w &= w - 1
			}
		}
	}
}

// Set marks bn in use, dirtying the owning metafile block into the running
// CP. It panics on double allocation — that invariant is the heart of
// allocator correctness.
func (a *Activemap) Set(bn uint64) {
	buf, byteOff, mask := a.locate(bn)
	d := buf.CPMutableData()
	if d[byteOff]&mask != 0 {
		panic(fmt.Sprintf("bitmap: double allocation of block %d", bn))
	}
	d[byteOff] |= mask
	a.file.DirtyIntoCP(buf)
	a.free--
	a.SetOps++
	if a.OnChange != nil {
		a.OnChange(bn, true)
	}
}

// Clear marks bn free, dirtying the owning metafile block into the running
// CP. It panics on double free.
func (a *Activemap) Clear(bn uint64) {
	buf, byteOff, mask := a.locate(bn)
	d := buf.CPMutableData()
	if d[byteOff]&mask == 0 {
		panic(fmt.Sprintf("bitmap: double free of block %d", bn))
	}
	d[byteOff] &^= mask
	a.file.DirtyIntoCP(buf)
	a.free++
	a.ClearOps++
	if a.OnChange != nil {
		a.OnChange(bn, false)
	}
}

// FindFree appends up to max free block numbers in [start, end) to dst,
// scanning 64 bits at a time, and returns the extended slice together with
// the number of 64-bit words examined (the caller charges CPU proportional
// to the scan work).
func (a *Activemap) FindFree(dst []uint64, start, end uint64, max int) ([]uint64, int) {
	if end > a.nbits {
		end = a.nbits
	}
	words := 0
	bn := start
	for bn < end && max > 0 {
		buf := a.file.GetOrCreateL0(BlockOf(bn))
		data := buf.Data()
		// Scan within this metafile block.
		blockEnd := (uint64(BlockOf(bn)) + 1) * BitsPerBlock
		if blockEnd > end {
			blockEnd = end
		}
		for bn < blockEnd && max > 0 {
			wordStart := bn &^ 63
			byteOff := (wordStart % BitsPerBlock) / 8
			w := binary.LittleEndian.Uint64(data[byteOff:])
			words++
			// Mask off bits below bn and at/after blockEnd.
			w |= (1 << (bn - wordStart)) - 1
			if wordEnd := wordStart + 64; wordEnd > blockEnd {
				w |= ^uint64(0) << (blockEnd - wordStart)
			}
			for w != ^uint64(0) && max > 0 {
				i := bits.TrailingZeros64(^w)
				dst = append(dst, wordStart+uint64(i))
				w |= 1 << i
				max--
			}
			bn = wordStart + 64
		}
	}
	return dst, words
}

// OrFrom ORs every set bit of the src metafile's bitmap content into this
// map, dirtying changed metafile blocks into the running CP and maintaining
// the free count. It is the bulk path for folding a snapmap into a volume's
// snapshot summary map: per-bit Set would charge one metafile dirty per bit,
// where one CP only needs one per changed block. Every newly set bit is
// reported through OnChange — it is a real allocatability transition, and
// observers (the hierarchical free-space index) must see it like any Set.
// Returns the number of newly set bits.
func (a *Activemap) OrFrom(src *fs.File) uint64 {
	newly := uint64(0)
	nblocks := (a.nbits + BitsPerBlock - 1) / BitsPerBlock
	for fbn := block.FBN(0); uint64(fbn) < nblocks; fbn++ {
		sbuf := src.Buffer(0, fbn)
		if sbuf == nil {
			continue // src block all-clear
		}
		sd := sbuf.Data()
		dbuf := a.file.GetOrCreateL0(fbn)
		changed := false
		dd := dbuf.Data()
		for off := 0; off < block.Size; off += 8 {
			sw := binary.LittleEndian.Uint64(sd[off:])
			if sw == 0 {
				continue
			}
			dw := binary.LittleEndian.Uint64(dd[off:])
			fresh := sw &^ dw
			if fresh == 0 {
				continue
			}
			if !changed {
				dd = dbuf.CPMutableData()
				dw = binary.LittleEndian.Uint64(dd[off:])
				fresh = sw &^ dw
				changed = true
			}
			newly += uint64(bits.OnesCount64(fresh))
			binary.LittleEndian.PutUint64(dd[off:], dw|sw)
			if a.OnChange != nil {
				base := uint64(fbn)*BitsPerBlock + uint64(off)*8
				for w := fresh; w != 0; w &= w - 1 {
					a.OnChange(base+uint64(bits.TrailingZeros64(w)), true)
				}
			}
		}
		if changed {
			a.file.DirtyIntoCP(dbuf)
		}
	}
	a.free -= newly
	a.SetOps += newly
	return newly
}

// CountFreeNotIn returns the number of bits in [start, end) clear in both
// this map and mask — the allocatable population when mask is a snapshot
// summary map holding blocks out of the free pool. A nil mask holds nothing
// out.
func (a *Activemap) CountFreeNotIn(mask *Activemap, start, end uint64) uint64 {
	if end > a.nbits {
		end = a.nbits
	}
	n := uint64(0)
	for bn := start; bn < end; {
		buf := a.file.GetOrCreateL0(BlockOf(bn))
		data := buf.Data()
		var mdata []byte
		if mask != nil {
			if mbuf := mask.file.Buffer(0, BlockOf(bn)); mbuf != nil {
				mdata = mbuf.Data()
			}
		}
		blockEnd := (uint64(BlockOf(bn)) + 1) * BitsPerBlock
		if blockEnd > end {
			blockEnd = end
		}
		for bn < blockEnd {
			wordStart := bn &^ 63
			byteOff := (wordStart % BitsPerBlock) / 8
			w := binary.LittleEndian.Uint64(data[byteOff:])
			if mdata != nil {
				w |= binary.LittleEndian.Uint64(mdata[byteOff:])
			}
			w |= (1 << (bn - wordStart)) - 1
			if wordEnd := wordStart + 64; wordEnd > blockEnd {
				w |= ^uint64(0) << (blockEnd - wordStart)
			}
			n += uint64(bits.OnesCount64(^w))
			bn = wordStart + 64
		}
	}
	return n
}

// ForEachDiff walks this map against src (a bitmap metafile over the same
// bit space) word-wise and calls fn once for every differing bit, with inSrc
// reporting which side holds it. fn may mutate this map through Set/Clear —
// each changed word is read before its bits are visited, and every bit is
// visited exactly once. This is the SnapRestore rebind walk: the active map
// converges on the snapmap's content through the ordinary per-bit mutation
// path, so the free-space index and all OnChange observers stay exact.
// Returns the number of words scanned for CPU charging.
func (a *Activemap) ForEachDiff(src *fs.File, fn func(bn uint64, inSrc bool)) int {
	words := 0
	for wordStart := uint64(0); wordStart < a.nbits; wordStart += 64 {
		cur := Word(a.file, wordStart)
		sw := Word(src, wordStart)
		words++
		diff := cur ^ sw
		if diff == 0 {
			continue
		}
		if wordEnd := wordStart + 64; wordEnd > a.nbits {
			diff &^= ^uint64(0) << (a.nbits - wordStart)
		}
		for w := diff; w != 0; w &= w - 1 {
			bn := wordStart + uint64(bits.TrailingZeros64(w))
			fn(bn, sw&(1<<(bn-wordStart)) != 0)
		}
	}
	return words
}

// AndPopcount returns the number of bits in [0, nbits) set in both bitmap
// metafiles — e.g. a clone's still-live base blocks (baseMap AND activemap),
// the population a clone split must copy before the parent hold can drop.
func AndPopcount(x, y *fs.File, nbits uint64) uint64 {
	n := uint64(0)
	for wordStart := uint64(0); wordStart < nbits; wordStart += 64 {
		w := Word(x, wordStart) & Word(y, wordStart)
		if w == 0 {
			continue
		}
		if wordEnd := wordStart + 64; wordEnd > nbits {
			w &^= ^uint64(0) << (nbits - wordStart)
		}
		n += uint64(bits.OnesCount64(w))
	}
	return n
}
