// Package raid implements RAID-4 style parity groups over simulated drives:
// a set of data drives plus one parity drive, written in stripes. The write
// allocator's first objective (paper §IV-D) — minimizing reads required for
// RAID parity computation — is directly measurable here: a write covering
// every data block of a stripe computes parity purely from new data (a
// "full-stripe write"), while a partial-stripe write must first read the
// missing blocks.
package raid

import (
	"fmt"
	"slices"

	"wafl/internal/block"
	"wafl/internal/fifo"
	"wafl/internal/sim"
	"wafl/internal/storage"
)

// Stats holds cumulative parity statistics for a group.
type Stats struct {
	FullStripeWrites    uint64 // stripes whose parity needed no reads
	PartialStripeWrites uint64 // stripes that required reconstruction reads
	ParityReadBlocks    uint64 // data blocks read to compute parity
	ParityBlocksWritten uint64
	StripeWriteIOs      uint64 // multi-stripe write operations submitted

	ScratchPool fifo.PoolStats // recycled stripe scratch (DESIGN §9)
}

// Group is one RAID group: N data drives and one parity drive of equal
// geometry. Block (d, dbn) on each data drive d shares the parity block at
// dbn on the parity drive. The parity drive keeps, per stripe, the row of
// data images its last landed parity write covered; the parity is their XOR,
// computed when it is read.
type Group struct {
	s      *sim.Scheduler
	id     int
	data   []*storage.Drive
	parity *storage.Device[[][]byte]
	depth  block.DBN // blocks per drive

	// scratchPool recycles stripe scratch; several writes can be in flight
	// on one group, each holding its own.
	scratchPool fifo.Pool[*stripeScratch]

	stats Stats
}

// stripeScratch is one Write's planning state: the touched stripes' DBNs,
// their rows (stripe k is rows[k*nd:(k+1)*nd]: per data drive the new image
// where fresh, else the old image phase A reads for parity), the per-drive
// reconstruction reads and the parity requests. It goes back to the group
// once issueWrites has submitted every drive write — drives copy their
// requests, and each parity request carries its own copy of its row — so
// nothing in it outlives the submission. A crash that drops phase A's reads
// leaves it outstanding for good (DropInFlight).
type stripeScratch struct {
	dbns       []block.DBN
	rows       [][]byte
	fresh      []bool
	readPlan   [][]block.DBN
	parityReqs []storage.Req[[][]byte]
}

// rowOf returns the index in rows of stripe dbn's first data drive.
func (sc *stripeScratch) rowOf(dbn block.DBN, nd int) int {
	k, _ := slices.BinarySearch(sc.dbns, dbn)
	return k * nd
}

// recycle empties sc, dropping its references to block images, and returns
// it to the group.
func (g *Group) recycle(sc *stripeScratch) {
	clear(sc.rows)
	clear(sc.parityReqs)
	sc.dbns, sc.rows, sc.fresh, sc.parityReqs = sc.dbns[:0], sc.rows[:0], sc.fresh[:0], sc.parityReqs[:0]
	for di := range sc.readPlan {
		sc.readPlan[di] = sc.readPlan[di][:0]
	}
	g.scratchPool.Put(sc)
}

// NewGroup builds a RAID group with ndata data drives and one parity drive,
// each of depth blocks, using the given drive profile.
func NewGroup(s *sim.Scheduler, id int, ndata int, depth block.DBN, profile storage.Profile) *Group {
	g := &Group{s: s, id: id, depth: depth}
	g.scratchPool = fifo.NewPool(&g.stats.ScratchPool, func() *stripeScratch {
		return &stripeScratch{readPlan: make([][]block.DBN, len(g.data))}
	})
	for i := 0; i < ndata; i++ {
		g.data = append(g.data, storage.NewDrive(s, fmt.Sprintf("rg%d.d%d", id, i), profile, depth))
	}
	g.parity = storage.NewDevice[[][]byte](s, fmt.Sprintf("rg%d.parity", id), profile, depth)
	return g
}

// Stats returns a snapshot of the group's parity statistics.
func (g *Group) Stats() Stats { return g.stats }

// DropInFlight models a power loss on the group: every drive drops its
// in-flight I/O, and the scratch of writes whose reconstruction reads that
// dropped is abandoned.
func (g *Group) DropInFlight() {
	for _, d := range g.data {
		d.DropInFlight()
	}
	g.parity.DropInFlight()
	g.scratchPool.Abandon()
}

// ID returns the group's index within its aggregate.
func (g *Group) ID() int { return g.id }

// DataDrives returns the number of data drives in the group.
func (g *Group) DataDrives() int { return len(g.data) }

// Depth returns the number of blocks per drive (== number of stripes).
func (g *Group) Depth() block.DBN { return g.depth }

// Drive returns data drive i.
func (g *Group) Drive(i int) *storage.Drive { return g.data[i] }

// ParityDrive returns the group's parity drive, whose DBNs hold rows.
func (g *Group) ParityDrive() *storage.Device[[][]byte] { return g.parity }

// WriteResult describes the parity work a stripe write required.
type WriteResult struct {
	FullStripes    int
	PartialStripes int
	ParityReads    int          // blocks read for reconstruction
	ParityCPU      sim.Duration // XOR cost to charge to the simulated CPU
}

// Write submits a multi-stripe write: writes[i] is the set of single-block
// writes destined for data drive i. Parity is written per touched stripe —
// from new data alone when the stripe is fully covered, otherwise after
// reading the stripe's missing blocks — as the stripe's row of images, whose
// XOR the parity drive's readers compute; its cost is charged here.
// done (optional) fires in scheduler context when every drive I/O, parity
// included, has completed. The returned WriteResult is populated
// immediately with the parity work required; callers charge ParityCPU to
// the simulated CPU.
//
// parityCPUPerBlock is the simulated CPU cost of XOR-ing one block; it comes
// from the system cost model.
func (g *Group) Write(writes [][]storage.WriteReq, parityCPUPerBlock sim.Duration, done func()) WriteResult {
	var res WriteResult
	if len(writes) != len(g.data) {
		panic("raid: writes must have one slice per data drive")
	}
	g.stats.StripeWriteIOs++

	// The touched stripes, DBN-sorted, and their rows.
	nd := len(g.data)
	sc := g.scratchPool.Get()
	for _, reqs := range writes {
		for _, r := range reqs {
			sc.dbns = append(sc.dbns, r.DBN)
		}
	}
	if len(sc.dbns) == 0 {
		g.recycle(sc)
		if done != nil {
			g.s.After(0, done)
		}
		return res
	}
	slices.Sort(sc.dbns)
	sc.dbns = slices.Compact(sc.dbns)
	n := len(sc.dbns) * nd
	sc.rows = slices.Grow(sc.rows, n)[:n]
	sc.fresh = slices.Grow(sc.fresh, n)[:n]
	clear(sc.fresh)
	for di, reqs := range writes {
		for _, r := range reqs {
			i := sc.rowOf(r.DBN, nd) + di
			sc.rows[i], sc.fresh[i] = r.Data, true
		}
	}

	// Classify stripes and plan reconstruction reads for partial ones.
	for k, dbn := range sc.dbns {
		missing := 0
		for di := range sc.readPlan {
			if !sc.fresh[k*nd+di] {
				sc.readPlan[di] = append(sc.readPlan[di], dbn)
				missing++
			}
		}
		if missing == 0 {
			res.FullStripes++
		} else {
			res.PartialStripes++
			res.ParityReads += missing
		}
	}
	res.ParityCPU = sim.Duration(n) * parityCPUPerBlock

	g.stats.FullStripeWrites += uint64(res.FullStripes)
	g.stats.PartialStripeWrites += uint64(res.PartialStripes)
	g.stats.ParityReadBlocks += uint64(res.ParityReads)

	// Phase A: issue reconstruction reads. When all complete, compute
	// parity and issue the data + parity writes (phase B).
	pendingReads := 0
	for di, plan := range sc.readPlan {
		if len(plan) == 0 {
			continue
		}
		pendingReads++
		di, plan := di, plan
		g.data[di].Read(plan, func(bs [][]byte) {
			for i, dbn := range plan {
				sc.rows[sc.rowOf(dbn, nd)+di] = bs[i]
			}
			pendingReads--
			if pendingReads == 0 {
				g.issueWrites(writes, sc, done)
			}
		})
	}
	if pendingReads == 0 {
		g.issueWrites(writes, sc, done)
	}
	return res
}

// xorAll returns the XOR of the given block images, sized to the longest.
func xorAll(imgs [][]byte) []byte {
	n := 0
	for _, img := range imgs {
		n = max(n, len(img))
	}
	out := make([]byte, n)
	for _, img := range imgs {
		block.XOR(out, img)
	}
	return out
}

// issueWrites submits one I/O per data drive plus one parity-drive I/O of
// each touched stripe's row, invoking done when all complete. sc goes back to
// the group once every I/O is submitted.
func (g *Group) issueWrites(writes [][]storage.WriteReq, sc *stripeScratch, done func()) {
	nd := len(g.data)
	for k, dbn := range sc.dbns {
		// A copy of the row per stripe: the scratch rows are recycled, and a
		// slab per write would keep a rewritten stripe's displaced images
		// alive until the last of its stripes is rewritten.
		sc.parityReqs = append(sc.parityReqs, storage.Req[[][]byte]{DBN: dbn, Data: slices.Clone(sc.rows[k*nd : (k+1)*nd])})
	}
	g.stats.ParityBlocksWritten += uint64(len(sc.parityReqs))

	pending := 1 // parity I/O
	for _, reqs := range writes {
		if len(reqs) > 0 {
			pending++
		}
	}
	complete := func() {
		pending--
		if pending == 0 && done != nil {
			done()
		}
	}
	for di, reqs := range writes {
		if len(reqs) > 0 {
			g.data[di].Write(reqs, complete)
		}
	}
	g.parity.Write(sc.parityReqs, complete)
	g.recycle(sc)
}

// Forget drops data drive di's image at dbn together with the parity row's
// entry for it, and reports whether it did. It does only when the row holds
// that very array: then both sides of the stripe's XOR lose the same image,
// so VerifyStripe and every other block's ReconstructBlock read what they
// read before. A row left with no image is dropped too. Untimed, like
// storage.Device.Forget; its caller knows no committed tree reaches the
// block and no write of the stripe is in flight.
func (g *Group) Forget(di int, dbn block.DBN) bool {
	img, row := g.data[di].Peek(dbn), g.parity.Peek(dbn)
	if img == nil || row == nil || row[di] == nil || !sameArray(row[di], img) {
		return false
	}
	g.data[di].Forget(dbn)
	// The row is the parity media's own: a landed write's requests are
	// cleared, and a read hands its images out only for the call.
	row[di] = nil
	if !slices.ContainsFunc(row, func(b []byte) bool { return b != nil }) {
		g.parity.Forget(dbn)
	}
	return true
}

// sameArray reports whether a and b are one image: the same bytes of the
// same array, not merely equal ones. Two empty images are one: both are the
// zero block.
func sameArray(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// stripe returns the committed images of stripe dbn: every data drive's
// except skip's (-1 for none), then those of the parity drive's row.
func (g *Group) stripe(dbn block.DBN, skip int) [][]byte {
	row := g.parity.Peek(dbn)
	out := make([][]byte, 0, len(g.data)+len(row))
	for di, d := range g.data {
		if di != skip {
			out = append(out, d.Peek(dbn))
		}
	}
	return append(out, row...)
}

// VerifyStripe recomputes parity for stripe dbn from the committed media and
// reports whether it matches the committed parity exactly. Only tests call
// it, to validate RAID consistency.
func (g *Group) VerifyStripe(dbn block.DBN) bool {
	imgs := g.stripe(dbn, -1)
	return block.Equal(xorAll(imgs[:len(g.data)]), xorAll(imgs[len(g.data):]))
}

// ReconstructBlock rebuilds the committed content of (driveIdx, dbn) from
// the other drives and parity, as a RAID recovery would.
func (g *Group) ReconstructBlock(driveIdx int, dbn block.DBN) []byte {
	return xorAll(g.stripe(dbn, driveIdx))
}
