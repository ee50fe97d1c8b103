package bitmap

import (
	"fmt"
	"math/bits"
)

// Index is the hierarchical free-space accounting over an activemap and an
// optional mask map (a volume activemap and its snapshot summary map): a
// bit is allocatable iff it is clear in both. One index serves every block
// space — the aggregate's VBNs (no mask, one region per drive and AA) and
// each volume's VVBNs. Two levels are maintained incrementally from the
// maps' OnChange streams:
//
//   - regionFree[r]: the allocatable-bit count of each regionBits-sized
//     region, so region selection is an O(regions) counter lookup instead
//     of an O(address-space/64) recount.
//   - freeWords: one bit per 64-bit data word of the maps, set iff the
//     word holds at least one allocatable bit, so fills skip exhausted
//     words entirely and cost is proportional to blocks found, not to the
//     occupancy of the space scanned. It is built by the first FindFree
//     and maintained from then on: an index nobody searches (the
//     aggregate's, whose fills scan the activemap) never pays for it.
//
// Counters track the maps' on-disk bit state, exactly like a full
// CountFreeNotIn recount would: per-CP overlays (pending frees, bucket
// reservations) stay with the caller. Every transition path must feed the
// index — Set, Clear, bulk OrFrom (snapshot summary fold), and snapshot
// reclaim's Clears all fire OnChange — and Rebuild recomputes the counters
// word-wise on mount/Rebind.
//
// The index reads map words without creating metafile buffers (absent
// blocks are all-clear), so maintaining it never perturbs the files'
// buffer population.
type Index struct {
	active     *Activemap
	mask       *Activemap // may be nil (no snapshot summary)
	nbits      uint64
	regionBits uint64

	regionFree []int64
	freeWords  []uint64 // bit w set => data word w has >=1 allocatable bit; nil until the first FindFree
}

// NewIndex builds the index over active (and mask, which may be nil),
// chains itself onto both maps' OnChange hooks, and performs the initial
// word-wise rebuild. regionBits must be a multiple of 64.
func NewIndex(active, mask *Activemap, regionBits uint64) *Index {
	if regionBits == 0 || regionBits%64 != 0 {
		panic(fmt.Sprintf("bitmap: index region size %d not a multiple of 64", regionBits))
	}
	x := &Index{
		active:     active,
		mask:       mask,
		nbits:      active.nbits,
		regionBits: regionBits,
	}
	x.regionFree = make([]int64, (x.nbits+regionBits-1)/regionBits)
	prevA := active.OnChange
	active.OnChange = func(bn uint64, used bool) {
		if prevA != nil {
			prevA(bn, used)
		}
		x.observe(bn, used, x.mask)
	}
	if mask != nil {
		if mask.nbits != active.nbits {
			panic(fmt.Sprintf("bitmap: index over mismatched spaces (%d vs %d bits)", active.nbits, mask.nbits))
		}
		prevM := mask.OnChange
		mask.OnChange = func(bn uint64, used bool) {
			if prevM != nil {
				prevM(bn, used)
			}
			x.observe(bn, used, x.active)
		}
	}
	x.Rebuild()
	return x
}

// RegionFree returns region r's allocatable-bit count.
func (x *Index) RegionFree(r int) int64 { return x.regionFree[r] }

// wordUsed returns the OR of the active and mask words at wordStart
// (64-aligned), with bits past the end of the address space forced to 1 —
// so ^uint64(0) means "no allocatable bit in this word".
func (x *Index) wordUsed(wordStart uint64) uint64 {
	w := Word(x.active.file, wordStart)
	if x.mask != nil {
		w |= Word(x.mask.file, wordStart)
	}
	if wordStart+64 > x.nbits {
		w |= ^uint64(0) << (x.nbits - wordStart)
	}
	return w
}

// observe folds one bit transition of either map into both index levels.
// other is the map that did NOT transition: if it holds the bit, the bit
// was not allocatable before and is not after, so nothing changes.
func (x *Index) observe(bn uint64, nowUsed bool, other *Activemap) {
	if other != nil && Word(other.file, bn&^63)&(1<<(bn&63)) != 0 {
		return
	}
	r := bn / x.regionBits
	wi := bn >> 6
	if nowUsed {
		x.regionFree[r]--
		if x.regionFree[r] < 0 {
			panic(fmt.Sprintf("bitmap: free-space index region %d count negative after alloc of bit %d", r, bn))
		}
		if x.freeWords != nil && x.wordUsed(bn&^63) == ^uint64(0) {
			x.freeWords[wi>>6] &^= 1 << (wi & 63)
		}
	} else {
		x.regionFree[r]++
		if x.freeWords != nil {
			x.freeWords[wi>>6] |= 1 << (wi & 63)
		}
	}
}

// Rebuild recomputes the region counters word-wise from the maps' current
// content — the mount/Rebind path — and drops the free-words level for the
// next FindFree to rebuild. Cost is one pass over the maps' words, not a
// per-bit loop.
func (x *Index) Rebuild() {
	clear(x.regionFree)
	x.freeWords = nil
	for ws := uint64(0); ws < x.nbits; ws += 64 {
		x.regionFree[ws/x.regionBits] += int64(64 - bits.OnesCount64(x.wordUsed(ws)))
	}
}

// words returns the free-words level, building it word-wise on first use.
func (x *Index) words() []uint64 {
	if x.freeWords == nil {
		nWords := (x.nbits + 63) / 64
		x.freeWords = make([]uint64, (nWords+63)/64)
		for wi := uint64(0); wi < nWords; wi++ {
			if x.wordUsed(wi<<6) != ^uint64(0) {
				x.freeWords[wi>>6] |= 1 << (wi & 63)
			}
		}
	}
	return x.freeWords
}

// FindFree appends up to max allocatable bit numbers in [start, end) to dst
// — bits clear in both maps — and returns the extended slice plus the
// number of 64-bit words examined (free-words bitset words consulted plus
// data words actually read), the caller's CPU-charging unit. Words with no
// allocatable bit are skipped via the free-words level, so the scan cost is
// proportional to the bits found plus the (64x smaller) summary traversal,
// not to the span's occupancy.
func (x *Index) FindFree(dst []uint64, start, end uint64, max int) ([]uint64, int) {
	if end > x.nbits {
		end = x.nbits
	}
	if start >= end || max <= 0 {
		return dst, 0
	}
	freeWords := x.words()
	words := 0
	endW := (end + 63) >> 6
	wi := start >> 6
	lastSlot := ^uint64(0)
	for wi < endW && max > 0 {
		slot := wi >> 6
		if slot != lastSlot {
			words++ // one free-words bitset word consulted
			lastSlot = slot
		}
		sw := freeWords[slot] &^ ((1 << (wi & 63)) - 1)
		if sw == 0 {
			wi = (slot + 1) << 6
			continue
		}
		wi = slot<<6 + uint64(bits.TrailingZeros64(sw))
		if wi >= endW {
			break
		}
		words++ // one data word examined
		wordStart := wi << 6
		w := x.wordUsed(wordStart)
		if wordStart < start {
			w |= (1 << (start - wordStart)) - 1
		}
		if wordStart+64 > end {
			w |= ^uint64(0) << (end - wordStart)
		}
		for w != ^uint64(0) && max > 0 {
			i := bits.TrailingZeros64(^w)
			dst = append(dst, wordStart+uint64(i))
			w |= 1 << i
			max--
		}
		wi++
	}
	return dst, words
}

// Verify cross-checks the index against a full recount of the maps and
// returns a description of every mismatch (capped): per-region counters
// against CountFreeNotIn, and, once FindFree has built it, every free-words
// bit against its data word. The fsck invariant for the incremental
// maintenance.
func (x *Index) Verify() []string {
	var errs []string
	add := func(s string) {
		if len(errs) < 20 {
			errs = append(errs, s)
		}
	}
	for r := range x.regionFree {
		lo := uint64(r) * x.regionBits
		hi := lo + x.regionBits
		if hi > x.nbits {
			hi = x.nbits
		}
		if got, want := x.regionFree[r], x.active.CountFreeNotIn(x.mask, lo, hi); got != int64(want) {
			add(fmt.Sprintf("free-index region %d: counter %d != recount %d", r, got, want))
		}
	}
	for wi := uint64(0); x.freeWords != nil && wi < (x.nbits+63)/64; wi++ {
		has := x.wordUsed(wi<<6) != ^uint64(0)
		bit := x.freeWords[wi>>6]&(1<<(wi&63)) != 0
		if bit != has {
			add(fmt.Sprintf("free-index word %d: summary bit %v but word has allocatable=%v", wi, bit, has))
		}
	}
	return errs
}

// CorruptRegionCounter adds delta to region r's counter — a fault-injection
// hook for exercising the fsck invariant in tests.
func (x *Index) CorruptRegionCounter(r int, delta int64) { x.regionFree[r] += delta }

// CorruptFreeWord flips the free-words summary bit covering data word wi,
// building the level first — the second fault-injection hook.
func (x *Index) CorruptFreeWord(wi uint64) { x.words()[wi>>6] ^= 1 << (wi & 63) }
