package core

import (
	"wafl/internal/block"
	"wafl/internal/sim"
	"wafl/internal/storage"
)

// Bucket is the unit of physical allocation handed to cleaner threads: a
// set of free VBNs within one chunk-sized window on a single drive (§IV-C).
// Because the VBN layout is drive-major, the VBNs are contiguous on disk up
// to already-allocated holes, preserving sequential-read layout.
type Bucket struct {
	group, drive int
	window       block.DBN // first DBN of the covering window
	vbns         []block.VBN
	next         int // vbns[:next] have been consumed by USE
	tetris       *Tetris
}

// Remaining returns how many unused VBNs the bucket still holds.
func (b *Bucket) Remaining() int { return len(b.vbns) - b.next }

// Used returns the VBNs consumed so far.
func (b *Bucket) Used() []block.VBN { return b.vbns[:b.next] }

// Tetris is one chunk-deep stripe window of a RAID group, from its fill to
// its write I/O (§IV-E): the window's record, recycled through
// Infra.tetrisPool with its per-drive fill bodies bound once. Its I/O's width
// is the group's data-drive count and its depth the chunk size. Each USE
// enqueues the cleaned buffer onto the per-drive list; a reference count of
// outstanding buckets tells the allocator when the window is complete and
// the I/O can be built and sent to RAID. Within the window, the cleaner that
// holds a drive's bucket has exclusive access to that drive's list, so no
// locking is needed on the enqueue path — the paper's lock-free tetris
// insertion.
type Tetris struct {
	group  int
	window block.DBN // first DBN
	depth  block.DBN
	// fills[d] is drive d's fill message body, bound once; buckets[d] is the
	// bucket it filled, and pending counts the fills not yet run.
	fills   []func(*sim.Thread)
	buckets []*Bucket
	pending int
	// refs counts the window's buckets not yet recycled, the unfilled ones
	// included; the last recycle puts the record back (Infra.unrefWindow).
	refs int
	// io is taken from Infra.listPool by the first addToTetris after the
	// window opens (or after a send), and goes back, emptied, once RAID
	// reports every drive I/O built from it complete.
	io *tetrisIO
	// outstanding counts buckets not yet returned via PUT (or exhausted);
	// when it reaches zero the I/O is sent. initialBuckets is the number
	// of non-empty buckets the window produced, and committedBuckets
	// counts how many have had their allocations committed to the
	// activemap — when all have, the infrastructure refills the window.
	outstanding      int
	initialBuckets   int
	committedBuckets int
	blocks           int
}

// tetrisIO is one RAID write of the allocator's, a window's or a group's
// share of the activemap flush: one request list per data drive, with its
// RAID completion, the method value land, bound once.
type tetrisIO struct {
	in    *Infra
	lists [][]storage.WriteReq
	land  func()
}

// landed empties the lists once RAID reports every drive I/O built from
// them complete, and returns the record.
func (io *tetrisIO) landed() {
	for d := range io.lists {
		clear(io.lists[d])
		io.lists[d] = io.lists[d][:0]
	}
	io.in.listPool.Put(io)
	io.in.ioDone()
}

// addToTetris enqueues a cleaned block's image on te at its assigned
// location, to be marked media-only when it lands if mediaOnly is set.
func (in *Infra) addToTetris(te *Tetris, drive int, dbn block.DBN, img block.Image, mediaOnly bool) {
	if te.io == nil {
		te.io = in.listPool.Get()
	}
	te.io.lists[drive] = append(te.io.lists[drive], storage.WriteReq{DBN: dbn, Data: img.Bytes, Name: img.Name, MediaOnly: mediaOnly})
	te.blocks++
}

// VBucket is the virtual-space analogue of a Bucket: a chunk of free VVBNs
// of one volume, plus the (vvbn → pvbn) assignments recorded by USE so the
// infrastructure can commit container-map entries in batch ("a version of
// this infrastructure is reused to write allocate Virtual VBNs", §IV-D).
type VBucket struct {
	vs    *volState
	vvbns []block.VVBN
	next  int
	// pvbns[i] is the physical home assigned alongside vvbns[i].
	pvbns []block.VBN
	// commit is the body of the message PutVBucket sends, bound once.
	commit func(*sim.Thread)
}

// Remaining returns how many unused VVBNs the bucket still holds.
func (v *VBucket) Remaining() int { return len(v.vvbns) - v.next }

// use consumes the next VVBN, recording its physical pairing.
func (v *VBucket) use(pvbn block.VBN) block.VVBN {
	vv := v.vvbns[v.next]
	v.next++
	v.pvbns = append(v.pvbns, pvbn)
	return vv
}

// bitset is an in-memory bit vector used for transient per-CP state:
// blocks freed in the running CP (not reusable until the CP commits) and
// blocks reserved by filled-but-uncommitted buckets.
type bitset struct {
	words []uint64
}

func newBitset(n uint64) *bitset { return &bitset{words: make([]uint64, (n+63)/64)} }

func (s *bitset) set(i uint64)       { s.words[i/64] |= 1 << (i % 64) }
func (s *bitset) clear(i uint64)     { s.words[i/64] &^= 1 << (i % 64) }
func (s *bitset) test(i uint64) bool { return s.words[i/64]&(1<<(i%64)) != 0 }

func (s *bitset) reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// recycleBucket ends a bucket's lifetime — its allocations committed, or its
// reservation released unused — and keeps its VBN slice for the next fill.
// Its window keeps the reference the bucket held until the caller is done
// with the window too (unrefWindow).
func (in *Infra) recycleBucket(b *Bucket) {
	*b = Bucket{vbns: b.vbns[:0]}
	in.bucketPool.Put(b)
}

// unrefWindow drops n of te's references: n of its buckets were recycled.
// The last one puts the record back, keeping its bound fill bodies and its
// buckets slice: every bucket was PUT or dropped by then, so the window's
// I/O has been sent.
func (in *Infra) unrefWindow(te *Tetris, n int) {
	if te.refs -= n; te.refs > 0 {
		return
	}
	clear(te.buckets)
	*te = Tetris{fills: te.fills, buckets: te.buckets}
	in.tetrisPool.Put(te)
}

// dropBucket releases an unused bucket's reservation and recycles it.
func (in *Infra) dropBucket(b *Bucket) {
	release(in.phys, b.vbns)
	in.recycleBucket(b)
}

// recycleVBucket is recycleBucket for the virtual side.
func (in *Infra) recycleVBucket(vb *VBucket) {
	*vb = VBucket{vvbns: vb.vvbns[:0], pvbns: vb.pvbns[:0], commit: vb.commit}
	in.vbucketPool.Put(vb)
}
