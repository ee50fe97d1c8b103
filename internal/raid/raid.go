// Package raid implements RAID-4 style parity groups over simulated drives:
// a set of data drives plus one parity drive, written in stripes. The write
// allocator's first objective (paper §IV-D) — minimizing reads required for
// RAID parity computation — is directly measurable here: a write covering
// every data block of a stripe computes parity purely from new data (a
// "full-stripe write"), while a partial-stripe write must first read the
// missing blocks.
package raid

import (
	"cmp"
	"fmt"
	"maps"
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

	// Rows counts the stripes the group keeps an explicit row for: those with
	// a write in flight, and the write hole a crash tore.
	Rows int64 `stat:"gauge"`

	ScratchPool fifo.PoolStats // recycled stripe scratch (DESIGN §9)
	WritePool   fifo.PoolStats // recycled stripe-write records (DESIGN §9)
}

// Group is one RAID group: N data drives and one parity drive of equal
// geometry. Block (d, dbn) on each data drive d shares the parity block at
// dbn on the parity drive. A stripe's parity is the XOR of its covered row,
// computed when it is read (row): the explicit row the group keeps for dbn,
// if any — the data images its last landed parity write covered — or else,
// for a derived stripe, the images its data drives hold. The parity drive
// times, counts and fault-injects the parity I/O; its requests carry no image.
type Group struct {
	s      *sim.Scheduler
	id     int
	data   []*storage.Drive
	parity *storage.Drive
	depth  block.DBN // blocks per drive

	// scratchPool recycles stripe scratch and writePool stripe-write
	// records; several writes can be in flight on one group, each holding
	// its own.
	scratchPool fifo.Pool[*stripeScratch]
	writePool   fifo.Pool[*stripeWrite]
	// rows holds the explicit rows by stripe DBN; rowPool recycles them: one
	// is outstanding for each row in rows and each parity request in flight.
	rows     map[block.DBN][][]byte
	rowPool  fifo.Pool[[][]byte]
	rowStats fifo.PoolStats
	// inflight is the submitted writes whose last I/O has not completed, in
	// submission order.
	inflight []*stripeWrite
	// derived is row's buffer for a derived stripe.
	derived [][]byte

	// images takes back the media-only images the group's media let go of;
	// nil keeps none.
	images Images

	stats Stats
}

// Images is the owner of the images only the media holds (fs.ImagePool). A
// data image that its data drive and its stripe's covered row have both let
// go of goes back to it: at Forget, or when a write that displaced it has
// landed, parity included.
type Images interface {
	MediaOnly(img []byte) bool
	Release(img []byte)
}

// displaced is a media-only image a write in flight replaces at data drive
// di's dbn.
type displaced struct {
	di  int
	dbn block.DBN
	img []byte
}

// stripeScratch is one Write's planning state: the touched stripes' DBNs,
// their rows (stripe k is rows[k*nd:(k+1)*nd]: per data drive the new image
// where fresh, else the old image phase A reads for parity) and the
// per-drive reconstruction reads. It goes back to the group once the write
// is submitted — each parity request carries its own row — so nothing in it
// outlives the submission. A crash that drops phase A's reads leaves it
// outstanding for good (DropInFlight).
type stripeScratch struct {
	dbns     []block.DBN
	rows     [][]byte
	fresh    []bool
	readPlan [][]block.DBN
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
	sc.dbns, sc.rows, sc.fresh = sc.dbns[:0], sc.rows[:0], sc.fresh[:0]
	for di := range sc.readPlan {
		sc.readPlan[di] = sc.readPlan[di][:0]
	}
	g.scratchPool.Put(sc)
}

// stripeWrite is one Write from its call to its last I/O's completion, with
// phase A's per-drive read callbacks and its I/Os' completion callbacks
// bound once (DESIGN §9). It goes back to the group when its last I/O
// completes; a crash abandons every one outstanding (DropInFlight).
type stripeWrite struct {
	g      *Group
	writes [][]storage.WriteReq // until submitted
	sc     *stripeScratch       // until submitted
	done   func()

	pendingReads, pending int

	// parity is the parity I/O, one request a stripe in DBN order; rows[k]
	// is the row from rowPool that parity[k] lands, until it has, and
	// pins[k] the stripe's explicit row it lands into: one array from the
	// first write of the stripe in flight to the last.
	parity     []storage.WriteReq
	rows, pins [][][]byte
	landed     bool // the parity I/O has landed
	shared     bool // another write in flight may cover one of its stripes
	gone       []displaced

	reads              []func([][]byte) // phase A's, by data drive
	onIODone, onParity func()
}

// NewGroup builds a RAID group with ndata data drives and one parity drive,
// each of depth blocks, using the given drive profile.
func NewGroup(s *sim.Scheduler, id int, ndata int, depth block.DBN, profile storage.Profile) *Group {
	g := &Group{s: s, id: id, depth: depth, rows: map[block.DBN][][]byte{}}
	g.scratchPool = fifo.NewPool(&g.stats.ScratchPool, func() *stripeScratch {
		return &stripeScratch{readPlan: make([][]block.DBN, len(g.data))}
	})
	g.writePool = fifo.NewPool(&g.stats.WritePool, func() *stripeWrite {
		w := &stripeWrite{g: g, reads: make([]func([][]byte), len(g.data))}
		w.onIODone, w.onParity = w.ioDone, w.parityLanded
		for di := range w.reads {
			w.reads[di] = func(bs [][]byte) { w.readLanded(di, bs) }
		}
		return w
	})
	g.rowPool = fifo.NewPool(&g.rowStats, func() [][]byte { return make([][]byte, 0, len(g.data)) })
	for i := 0; i < ndata; i++ {
		g.data = append(g.data, storage.NewDrive(s, fmt.Sprintf("rg%d.d%d", id, i), profile, depth))
	}
	g.parity = storage.NewParityDrive(s, fmt.Sprintf("rg%d.parity", id), profile, depth)
	return g
}

// SetImages makes im the owner of the group's media-only images. The owner
// of the media sets it, and a recovered one takes it over: the images its
// predecessor registered are the garbage collector's.
func (g *Group) SetImages(im Images) { g.images = im }

// Stats returns a snapshot of the group's parity statistics.
func (g *Group) Stats() Stats {
	st := g.stats
	st.Rows = int64(len(g.rows))
	return st
}

// DropInFlight models a power loss on the group: every drive drops its
// in-flight I/O, tearing what its injector says, and the records of the
// writes that dropped are abandoned. The explicit rows then settle.
func (g *Group) DropInFlight() {
	for _, d := range g.data {
		d.DropInFlight()
	}
	g.settle(g.parity.DropInFlight())
	g.scratchPool.Abandon()
	g.writePool.Abandon()
}

// settle lands, in submission order, the prefix a crash tore of each parity
// I/O in flight (landed, the parity drive's report) and returns the rest of
// its rows to rowPool. Then each touched stripe whose data drives hold its
// row is derived again, so the rows left are the torn stripes, whose parity
// disagrees with their data.
func (g *Group) settle(landed []int) {
	for _, w := range g.inflight {
		if !w.landed {
			w.land(landed[0])
			landed = landed[1:]
		}
	}
	for _, w := range g.inflight {
		for _, r := range w.parity {
			if row, ok := g.rows[r.DBN]; ok {
				g.unpin(r.DBN, row)
			}
		}
	}
	clear(g.inflight)
	g.inflight = g.inflight[:0]
}

// DataDrives returns the number of data drives in the group.
func (g *Group) DataDrives() int { return len(g.data) }

// Depth returns the number of blocks per drive (== number of stripes).
func (g *Group) Depth() block.DBN { return g.depth }

// Drive returns data drive i.
func (g *Group) Drive(i int) *storage.Drive { return g.data[i] }

// ParityDrive returns the group's parity drive.
func (g *Group) ParityDrive() *storage.Drive { return g.parity }

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
// XOR the stripe's readers compute; its cost is charged here.
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
	w := g.writePool.Get()
	w.writes, w.sc, w.done = writes, sc, done
	for di, plan := range sc.readPlan {
		if len(plan) > 0 {
			w.pendingReads++
			g.data[di].Read(plan, w.reads[di])
		}
	}
	if w.pendingReads == 0 {
		w.issue()
	}
	return res
}

// readLanded puts the images phase A read from data drive di into their
// stripes' rows, and submits the write once every read has landed.
func (w *stripeWrite) readLanded(di int, bs [][]byte) {
	sc, nd := w.sc, len(w.g.data)
	for i, dbn := range sc.readPlan[di] {
		sc.rows[sc.rowOf(dbn, nd)+di] = bs[i]
	}
	w.pendingReads--
	if w.pendingReads == 0 {
		w.issue()
	}
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

// issue submits one I/O per data drive plus one parity-drive I/O that lands
// each touched stripe's row. A derived stripe is pinned first: its data
// images become an explicit row, the parity landed so far, until the write
// has landed. The scratch goes back to the group once every I/O is submitted.
func (w *stripeWrite) issue() {
	g, sc := w.g, w.sc
	nd := len(g.data)
	for k, dbn := range sc.dbns {
		pin, ok := g.rows[dbn]
		if !ok {
			pin = g.pin(dbn)
		}
		w.pins = append(w.pins, pin)
		w.parity = append(w.parity, storage.WriteReq{DBN: dbn})
		w.rows = append(w.rows, append(g.rowPool.Get(), sc.rows[k*nd:(k+1)*nd]...))
	}
	g.stats.ParityBlocksWritten += uint64(len(w.parity))
	lo, hi := sc.dbns[0], sc.dbns[len(sc.dbns)-1]
	for _, o := range g.inflight {
		if o.parity[0].DBN <= hi && lo <= o.parity[len(o.parity)-1].DBN {
			o.shared, w.shared = true, true
		}
	}
	g.inflight = append(g.inflight, w)

	w.pending = 1 // parity I/O
	for di, reqs := range w.writes {
		if len(reqs) > 0 {
			w.pending++
		}
		if g.images == nil {
			continue
		}
		for _, r := range reqs {
			if img := g.data[di].Peek(r.DBN); g.images.MediaOnly(img) {
				w.gone = append(w.gone, displaced{di, r.DBN, img})
			}
		}
	}
	for di, reqs := range w.writes {
		if len(reqs) > 0 {
			g.data[di].Write(reqs, w.onIODone)
		}
	}
	g.parity.Write(w.parity, w.onParity)
	w.writes, w.sc = nil, nil
	g.recycle(sc)
}

// covers returns the index in w.parity of stripe dbn, or -1.
func (w *stripeWrite) covers(dbn block.DBN) int {
	k, ok := slices.BinarySearchFunc(w.parity, dbn, func(r storage.WriteReq, dbn block.DBN) int { return cmp.Compare(r.DBN, dbn) })
	if !ok {
		return -1
	}
	return k
}

// parityLanded runs as the parity I/O lands.
func (w *stripeWrite) parityLanded() {
	w.landed = true
	w.land(len(w.rows))
	w.ioDone()
}

// land copies the first n of the write's rows into their stripes' explicit
// rows, each displacing what its stripe's row held, and returns every row of
// the write to rowPool.
func (w *stripeWrite) land(n int) {
	for k, row := range w.rows {
		if k < n {
			copy(w.pins[k], row)
		}
		w.g.putRow(row)
	}
	clear(w.rows)
	w.rows = w.rows[:0]
}

// ioDone counts one I/O of the write complete. At the last, each stripe no
// other write in flight covers drops its row if its data drives hold that
// row, the media-only images the write displaced go back to their owner —
// each one its drive no longer holds, unless a stale stripe's explicit row
// still does — and done runs.
func (w *stripeWrite) ioDone() {
	w.pending--
	if w.pending > 0 {
		return
	}
	g := w.g
	g.inflight = slices.DeleteFunc(g.inflight, func(o *stripeWrite) bool { return o == w })
	for k, r := range w.parity {
		if !w.shared || !slices.ContainsFunc(g.inflight, func(o *stripeWrite) bool { return o.covers(r.DBN) >= 0 }) {
			g.unpin(r.DBN, w.pins[k])
		}
	}
	for _, d := range w.gone {
		if sameArray(g.data[d.di].Peek(d.dbn), d.img) {
			continue
		}
		if row, stale := g.rows[d.dbn]; !stale || !sameArray(row[d.di], d.img) {
			g.images.Release(d.img)
		}
	}
	done := w.done
	clear(w.pins)
	clear(w.gone)
	w.parity, w.pins, w.gone = w.parity[:0], w.pins[:0], w.gone[:0]
	w.landed, w.shared, w.done = false, false, nil
	g.writePool.Put(w)
	if done != nil {
		done()
	}
}

// pin makes derived stripe dbn's data images its explicit row, and returns
// it.
func (g *Group) pin(dbn block.DBN) [][]byte {
	row := g.rowPool.Get()
	for _, d := range g.data {
		row = append(row, d.Peek(dbn))
	}
	g.rows[dbn] = row
	return row
}

// unpin drops stripe dbn's explicit row if its data drives hold it: the
// stripe is derived again.
func (g *Group) unpin(dbn block.DBN, row [][]byte) {
	if g.matches(dbn, row) {
		delete(g.rows, dbn)
		g.putRow(row)
	}
}

// putRow returns a row that neither rows nor a parity I/O in flight holds.
func (g *Group) putRow(row [][]byte) {
	clear(row)
	g.rowPool.Put(row[:0])
}

// matches reports whether row is, entry for entry, the images stripe dbn's
// data drives hold — nil where they hold nil — so that the row's stripe
// reads the same derived.
func (g *Group) matches(dbn block.DBN, row [][]byte) bool {
	for di, d := range g.data {
		img := d.Peek(dbn)
		if (row[di] == nil) != (img == nil) || !sameArray(row[di], img) {
			return false
		}
	}
	return true
}

// CheckRows audits the explicit rows while no write is in flight (at
// Quiesce): each differs from its stripe's data images, and they are all the
// rows the group has outstanding.
func (g *Group) CheckRows() error {
	if len(g.inflight) > 0 {
		return fmt.Errorf("raid group %d: %d writes in flight", g.id, len(g.inflight))
	}
	for _, dbn := range slices.Sorted(maps.Keys(g.rows)) {
		if g.matches(dbn, g.rows[dbn]) {
			return fmt.Errorf("raid group %d: stripe %d keeps the row its data drives hold", g.id, dbn)
		}
	}
	if n := int64(len(g.rows)); n != g.rowStats.Outstanding() {
		return fmt.Errorf("raid group %d: %d explicit rows, %d outstanding", g.id, n, g.rowStats.Outstanding())
	}
	return nil
}

// Forget drops data drive di's image at dbn together with the covered row's
// entry for it, and reports whether it did. It does only when the row holds
// that very array: then both sides of the stripe's XOR lose the same image,
// so VerifyStripe and every other block's ReconstructBlock read what they
// read before. A derived stripe's row is its data images, so the drive's
// image alone goes; a stale stripe's explicit row must hold the image too,
// and keeps its emptied entry, as it still differs from the data. A
// media-only image goes back to its owner (SetImages). Untimed, like
// storage.Drive.Forget; its caller knows no committed tree reaches the block
// and no write of the stripe is in flight.
func (g *Group) Forget(di int, dbn block.DBN) bool {
	img := g.data[di].Peek(dbn)
	if img == nil {
		return false
	}
	if row, stale := g.rows[dbn]; stale {
		if row[di] == nil || !sameArray(row[di], img) {
			return false
		}
		row[di] = nil // the row is the group's own, from rowPool
	}
	g.data[di].Forget(dbn)
	if g.images != nil {
		g.images.Release(img)
	}
	return true
}

// row returns stripe dbn's covered row and whether it is explicit: the
// group's row, or else the images the data drives hold, in a buffer valid
// until the next call.
func (g *Group) row(dbn block.DBN) (row [][]byte, explicit bool) {
	if row, ok := g.rows[dbn]; ok {
		return row, true
	}
	g.derived = g.derived[:0]
	for _, d := range g.data {
		g.derived = append(g.derived, d.Peek(dbn))
	}
	return g.derived, false
}

// sameArray reports whether a and b are one image: the same bytes of the
// same array, not merely equal ones. Two empty images are one: both are the
// zero block.
func sameArray(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// stripe returns the committed images of stripe dbn: every data drive's
// except skip's (-1 for none), then those of its covered row.
func (g *Group) stripe(dbn block.DBN, skip int) [][]byte {
	row, _ := g.row(dbn)
	out := make([][]byte, 0, len(g.data)+len(row))
	for di, d := range g.data {
		if di != skip {
			out = append(out, d.Peek(dbn))
		}
	}
	return append(out, row...)
}

// VerifyStripe recomputes parity for stripe dbn from the committed media and
// reports whether it matches the committed parity exactly: then every block
// of the stripe reconstructs to its own image (ReconstructBlock). Fsck checks
// every stripe holding a used block.
func (g *Group) VerifyStripe(dbn block.DBN) bool {
	imgs := g.stripe(dbn, -1)
	return block.Equal(xorAll(imgs[:len(g.data)]), xorAll(imgs[len(g.data):]))
}

// ReconstructBlock rebuilds the committed content of (driveIdx, dbn) from
// the other drives and parity, as a RAID recovery would.
func (g *Group) ReconstructBlock(driveIdx int, dbn block.DBN) []byte {
	return xorAll(g.stripe(dbn, driveIdx))
}
