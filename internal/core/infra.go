package core

import (
	"fmt"

	"wafl/internal/aggregate"
	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/counters"
	"wafl/internal/fifo"
	"wafl/internal/obs"
	"wafl/internal/sim"
	"wafl/internal/storage"
	"wafl/internal/waffinity"
)

// InfraStats holds cumulative infrastructure activity counters.
type InfraStats struct {
	BucketsFilled     uint64
	BucketsCommitted  uint64
	VBucketsFilled    uint64
	VBucketsCommitted uint64
	StageCommitMsgs   uint64 // free-commit messages (one per metafile block)
	FreesCommitted    uint64
	TetrisesSent      uint64
	TetrisBlocks      uint64
	FillWords         uint64 // bitmap words scanned by fills of both spaces (the total)
	VFillWords        uint64 // the volume fills' share of FillWords
	GetWaits          uint64 // times a GET, of either space, blocked on an empty cache
	WindowsSkipped    uint64 // windows with no free blocks at all

	// The recycled window state's pools (DESIGN §9).
	BucketPool, VBucketPool, ListPool, CommitPool fifo.PoolStats

	// Each GET's wait for a bucket and each vGET's for a vbucket (zero
	// when the cache had one), and each tetris's size in blocks: the live
	// histograms, which wafl.Stats copies.
	GetWait, VGetWait, TetrisSize *obs.Histogram
}

// windowState tracks a RAID group's fill cursor.
type windowState struct {
	aa     int       // current Allocation Area (-1 before first selection)
	cursor block.DBN // next window start within the AA
}

// windowFill coordinates the per-drive fill messages of one window.
type windowFill struct {
	tetris  *Tetris
	buckets []*Bucket
	pending int
}

// volState is the per-volume virtual allocation state: the volume's VVBN
// space plus what only the virtual side has — its vregion cursor and the
// per-volume top-up cache.
type volState struct {
	*space
	vol          *aggregate.Volume
	cache        fifo.Queue[*VBucket]
	cond         *sim.WaitQueue
	region       int    // current vAA (one activemap block of VVBNs), -1 initially
	cursor       uint64 // next vvbn to scan within the region
	usedRegions  []bool // vregions used this CP, by index
	pendingFills int
}

// Infra is the White Alligator infrastructure: it owns the bucket cache and
// used-bucket queue, performs every allocation-metafile read and write as
// Waffinity messages, and exports the GET/USE/PUT API to cleaner threads
// (paper §IV-A, Fig 2).
type Infra struct {
	s     *sim.Scheduler
	w     *waffinity.Scheduler
	h     *waffinity.Hierarchy
	a     *aggregate.Aggregate
	opts  Options
	costs CostModel

	// Bucket cache: the lock-protected list of available buckets.
	cacheMu   *sim.Mutex
	cacheCond *sim.WaitQueue
	cache     fifo.Queue[*Bucket]

	// Used-bucket queue: PUT parks buckets here until the infrastructure
	// message that commits them runs.
	usedQueue fifo.Queue[*Bucket]

	win     []windowState
	usedAAs [][]bool // per group, the AAs used this CP
	rrNext  []int

	// One space per block-number space: phys is the aggregate's, vols[id]
	// embeds volume id's, and spaces lists them all — aggregate first, then
	// volumes by ID, the order a cleaner releases its free stages in.
	phys   *space
	vols   []*volState
	spaces []*space

	metaCursor uint64 // physical scan cursor for metafile allocations

	// Global counters with loose accounting (§III-C).
	global    *counters.Global
	counterMu *sim.Mutex // the lock the LooseAccounting=false ablation contends on

	pendingOps int    // outstanding infra messages (fills + commits)
	done       func() // opDone, bound once: the completion callback of every send
	pendingIO  int    // outstanding storage I/Os (tetris + metafile writes)
	drainCond  *sim.WaitQueue
	draining   bool
	inCP       bool

	obsGroupTid []int32 // interned per-group trace track id + 1; 0 = unset

	// Recycled state (DESIGN §9): buckets and vbuckets come back when
	// committed or dropped, a tetris's per-drive lists when RAID completes
	// their I/O, free-commit records when their message has applied them.
	bucketPool  fifo.Pool[*Bucket]
	vbucketPool fifo.Pool[*VBucket]
	listPool    fifo.Pool[[][]storage.WriteReq]
	commitPool  fifo.Pool[*freeCommit]
	// metaScan is FindMetaVBN's one-candidate scratch, freeOrder free's
	// send-order scratch.
	metaScan  []block.VBN
	freeOrder []*freeCommit

	stats InfraStats
}

// groupTrack returns the trace track for a RAID group's window/tetris
// lifecycle events, interning it on first use.
func (in *Infra) groupTrack(tr *obs.Tracer, group int) int32 {
	if in.obsGroupTid == nil {
		in.obsGroupTid = make([]int32, in.a.Groups())
	}
	if in.obsGroupTid[group] == 0 {
		in.obsGroupTid[group] = tr.Track(obs.PidInfra, fmt.Sprintf("group%d", group)) + 1
	}
	return in.obsGroupTid[group] - 1
}

// NewInfra builds the infrastructure over an aggregate and a Waffinity
// hierarchy (which must contain at least one aggregate subtree).
func NewInfra(w *waffinity.Scheduler, h *waffinity.Hierarchy, a *aggregate.Aggregate, opts Options, costs CostModel) *Infra {
	s := a.Sched()
	in := &Infra{
		s: s, w: w, h: h, a: a, opts: opts, costs: costs,
		cacheMu:   sim.NewMutex(s, "bucket-cache"),
		cacheCond: sim.NewWaitQueue(s, "bucket-cache-cond"),
		counterMu: sim.NewMutex(s, "global-counters"),
		drainCond: sim.NewWaitQueue(s, "infra-drain"),
		global:    counters.NewGlobal(),
		stats: InfraStats{
			GetWait:    obs.NewHistogram("infra.get_wait"),
			VGetWait:   obs.NewHistogram("infra.vget_wait"),
			TetrisSize: obs.NewHistogram("infra.tetris_blocks"),
		},
	}
	in.done = in.opDone
	in.bucketPool = fifo.NewPool(&in.stats.BucketPool, func() *Bucket { return new(Bucket) })
	in.vbucketPool = fifo.NewPool(&in.stats.VBucketPool, func() *VBucket { return new(VBucket) })
	drives := a.Geometry().DataDrives
	in.listPool = fifo.NewPool(&in.stats.ListPool, func() [][]storage.WriteReq { return make([][]storage.WriteReq, drives) })
	in.commitPool = fifo.NewPool(&in.stats.CommitPool, func() *freeCommit {
		fc := &freeCommit{in: in}
		fc.run = fc.commit
		return fc
	})
	in.phys = in.newSpace("aggr.free", a.Activemap, a.Geometry().TotalBlocks(), a.TotalFree(), h.AggrVBN, h.Ranges)
	for gi := 0; gi < a.Groups(); gi++ {
		in.win = append(in.win, windowState{aa: -1})
		in.usedAAs = append(in.usedAAs, make([]bool, a.Geometry().AAsPerGroup()))
		in.rrNext = append(in.rrNext, 0)
	}
	for _, v := range a.Volumes() {
		// The volume counter tracks *allocatable* VVBNs — free means
		// !active && !summary, the same predicate findFree obeys — so
		// snapshot-held blocks are excluded from the initial count just as
		// they are from every later credit.
		free := v.Activemap.CountFreeNotIn(v.Summary, 0, v.VVBNBlocks())
		hv := h.Volumes[v.ID()]
		vs := &volState{
			space:       in.newSpace(fmt.Sprintf("vol%d.free", v.ID()), v.Activemap, v.VVBNBlocks(), free, hv.VolVBN, hv.Ranges),
			vol:         v,
			cond:        sim.NewWaitQueue(s, fmt.Sprintf("vol%d-vbucket-cond", v.ID())),
			region:      -1,
			usedRegions: make([]bool, (v.VVBNBlocks()+vRegionBits-1)/vRegionBits),
		}
		vs.find = v.FreeIdx.FindFree
		in.vols = append(in.vols, vs)
	}
	return in
}

// Stats returns a snapshot of infrastructure counters.
func (in *Infra) Stats() InfraStats { return in.stats }

// AggrFree returns the loosely-accounted global free-block counter.
func (in *Infra) AggrFree() int64 { return in.global.Get(in.phys.counter) }

// VolFree returns the loosely-accounted allocatable-VVBN counter of volID
// (free = !active && !summary; snapshot-held blocks excluded).
func (in *Infra) VolFree(volID int) int64 { return in.global.Get(in.vols[volID].counter) }

// selectAA picks the next Allocation Area for a group according to the
// configured policy, excluding AAs already used in this CP, or -1.
func (in *Infra) selectAA(group int) int {
	used := in.usedAAs[group]
	switch in.opts.AASelection {
	case AAFirstFit:
		for aa := range used {
			if !used[aa] && in.a.AAFree(group, aa) > 0 {
				return aa
			}
		}
	case AARoundRobin:
		n := len(used)
		for k := 0; k < n; k++ {
			aa := (in.rrNext[group] + k) % n
			if !used[aa] && in.a.AAFree(group, aa) > 0 {
				in.rrNext[group] = (aa + 1) % n
				return aa
			}
		}
	default: // AAMostFree
		return mostFree(used, func(aa int) int64 { return in.a.AAFree(group, aa) })
	}
	return -1
}

// nextWindow advances the group's fill cursor (selecting a new AA when the
// current one is exhausted) and returns the next chunk-deep window.
func (in *Infra) nextWindow(group int) (start, depth block.DBN) {
	geo := in.a.Geometry()
	ws := &in.win[group]
	if ws.aa < 0 || ws.cursor >= block.DBN(ws.aa+1)*geo.AAStripes {
		aa := claim(in.usedAAs[group], func() int { return in.selectAA(group) })
		if aa < 0 {
			panic(fmt.Sprintf("core: group %d out of space", group))
		}
		ws.aa = aa
		ws.cursor, _ = geo.AARange(aa)
		if ws.cursor == 0 {
			ws.cursor = 1 // stripe 0 is reserved for the superblock
		}
	}
	start = ws.cursor
	depth = block.DBN(in.opts.ChunkBlocks)
	if end := block.DBN(ws.aa+1) * geo.AAStripes; start+depth > end {
		depth = end - start
	}
	ws.cursor += depth
	return start, depth
}

// fillBucket scans one drive's slice of a window and builds its bucket,
// charging the scan to the executing thread.
func (in *Infra) fillBucket(t *sim.Thread, group, drive int, start, depth block.DBN, te *Tetris) *Bucket {
	geo := in.a.Geometry()
	lo := uint64(geo.VBNOf(group, drive, start))
	hi := lo + uint64(depth)
	fillStart := t.Now()
	b := in.bucketPool.Get()
	vbns, words := findFree(in.phys, b.vbns, lo, hi, int(depth))
	in.stats.FillWords += uint64(words)
	t.ConsumeAs(sim.CatInfra, in.costs.FillFixed+sim.Duration(words)*in.costs.FillPerWord)
	if tr := t.Tracer(); tr != nil {
		tr.SpanArg(obs.PidThreads, t.TrackID(), "infra", "fill bucket",
			int64(fillStart), int64(t.Now()), int64(len(vbns)))
	}
	reserve(in.phys, vbns)
	*b = Bucket{group: group, drive: drive, window: start, vbns: vbns, tetris: te}
	return b
}

// requestWindow begins filling the next window of a group, sending one fill
// message per data drive into the Range affinity covering that drive's
// bitmap region.
func (in *Infra) requestWindow(group int) {
	geo := in.a.Geometry()
	start, depth := in.nextWindow(group)
	drives := geo.DataDrives
	if tr := in.s.Tracer(); tr != nil {
		tr.InstantArg(obs.PidInfra, in.groupTrack(tr, group), "window", "window request",
			int64(in.s.Now()), int64(start))
	}
	wf := &windowFill{
		tetris:  &Tetris{group: group, window: start},
		buckets: make([]*Bucket, drives),
		pending: drives,
	}
	for d := 0; d < drives; d++ {
		d := d
		fbn := bitmap.BlockOf(uint64(geo.VBNOf(group, d, start)))
		in.send(in.phys.aff(fbn), func(t *sim.Thread) {
			b := in.fillBucket(t, group, d, start, depth, wf.tetris)
			wf.buckets[d] = b
			wf.pending--
			if !in.opts.EqualProgress {
				// Ablation: insert each bucket as soon as it fills, with
				// no synchronized whole-window insertion. Drives fall out
				// of lockstep and some idle while others queue.
				in.installBucketEarly(t, wf, b)
				return
			}
			if wf.pending == 0 {
				in.installWindow(t, wf)
			}
		})
	}
}

// installBucketEarly is the EqualProgress=false path: one bucket goes
// straight to the cache. Tetris accounting still works — outstanding is
// incremented per inserted bucket — and the window refills once every
// drive's fill has landed (or been dropped).
func (in *Infra) installBucketEarly(t *sim.Thread, wf *windowFill, b *Bucket) {
	if in.draining || !in.inCP {
		in.dropBucket(b)
		return
	}
	if len(b.vbns) > 0 {
		wf.tetris.outstanding++
		wf.tetris.initialBuckets++
		in.cacheMu.Lock(t)
		in.cache.Push(b)
		in.cacheMu.Unlock(t)
		in.stats.BucketsFilled++
		in.cacheCond.Signal()
	} else {
		in.recycleBucket(b)
	}
	if wf.pending == 0 && wf.tetris.initialBuckets == 0 {
		in.stats.WindowsSkipped++
		in.requestWindow(wf.tetris.group)
	}
}

// installWindow places a completed window's buckets into the bucket cache.
// With EqualProgress (the paper's synchronized insertion) all buckets of
// the window land together; the ablation inserts them as they come.
func (in *Infra) installWindow(t *sim.Thread, wf *windowFill) {
	if in.draining || !in.inCP {
		// The CP is quiescing: a bucket inserted now would outlive the
		// reservation reset at EndCP and collide with the next CP's
		// fills. Release the reservations and drop the window.
		for _, b := range wf.buckets {
			in.dropBucket(b)
		}
		return
	}
	nonEmpty := 0
	for _, b := range wf.buckets {
		if len(b.vbns) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		for _, b := range wf.buckets {
			in.recycleBucket(b)
		}
		in.stats.WindowsSkipped++
		in.requestWindow(wf.tetris.group)
		return
	}
	wf.tetris.outstanding = nonEmpty
	wf.tetris.initialBuckets = nonEmpty
	if tr := t.Tracer(); tr != nil {
		tr.InstantArg(obs.PidInfra, in.groupTrack(tr, wf.tetris.group), "window", "window install",
			int64(t.Now()), int64(nonEmpty))
	}
	in.cacheMu.Lock(t)
	for _, b := range wf.buckets {
		if len(b.vbns) > 0 {
			in.cache.Push(b)
			in.stats.BucketsFilled++
		} else {
			in.recycleBucket(b)
		}
	}
	in.cacheMu.Unlock(t)
	for i := 0; i < nonEmpty; i++ {
		in.cacheCond.Signal()
	}
}

// GetBucket removes and returns the next available bucket, blocking on the
// bucket cache until the infrastructure has one ready.
func (in *Infra) GetBucket(t *sim.Thread) *Bucket {
	t.Consume(in.costs.BucketOp)
	getStart := t.Now()
	in.cacheMu.Lock(t)
	waited := false
	for in.cache.Len() == 0 {
		in.stats.GetWaits++
		waited = true
		in.cacheCond.WaitWith(t, in.cacheMu)
	}
	b := in.cache.Pop()
	in.cacheMu.Unlock(t)
	in.stats.GetWait.Observe(int64(t.Now() - getStart))
	if tr := t.Tracer(); tr != nil && waited {
		tr.Span(obs.PidThreads, t.TrackID(), "alloc", "GET wait", int64(getStart), int64(t.Now()))
	}
	return b
}

// PutBucket returns a bucket whose VBNs have been consumed (or that the
// cleaner no longer needs): the bucket joins the used queue and a commit
// message updates the allocation metafiles; if it was the window's last
// outstanding bucket, the tetris I/O is built and sent to RAID.
func (in *Infra) PutBucket(t *sim.Thread, b *Bucket) {
	t.Consume(in.costs.BucketOp)
	if tr := t.Tracer(); tr != nil {
		tr.InstantArg(obs.PidThreads, t.TrackID(), "alloc", "PUT bucket",
			int64(t.Now()), int64(b.next))
	}
	te := b.tetris
	te.outstanding--
	if te.outstanding == 0 && te.blocks > 0 {
		in.sendTetris(t, te)
	}
	in.usedQueue.Push(b)
	fbn := bitmap.BlockOf(uint64(in.a.Geometry().VBNOf(b.group, b.drive, b.window)))
	in.send(in.phys.aff(fbn), in.commitBucket)
}

// commitBucket pops the oldest used bucket — every PUT pushed one and sent
// one commit — applies its allocations to the activemap and recycles it.
func (in *Infra) commitBucket(t *sim.Thread) {
	b := in.usedQueue.Pop()
	used := b.Used()
	blocks := distinctBlocks(used, bitmap.BitsPerBlock)
	t.ConsumeAs(sim.CatInfra, sim.Duration(blocks)*in.costs.CommitPerBlock+sim.Duration(len(used))*in.costs.CommitPerBit)
	tr := in.s.Tracer()
	for _, vbn := range used {
		if in.a.Activemap.IsSet(uint64(vbn)) {
			panic(fmt.Sprintf("core: double allocation of %v committing bucket group=%d drive=%d window=%d (reserved=%v pendingFree=%v) last setter: %s",
				vbn, b.group, b.drive, b.window, in.phys.reserved.test(uint64(vbn)), in.phys.pendingFree.test(uint64(vbn)), tr.BlockNote(uint64(vbn))))
		}
		if tr != nil { // NoteBlock's arguments are boxed before its own nil check
			tr.NoteBlock(uint64(vbn), "commitBucket g=%d d=%d win=%d cp=%d", b.group, b.drive, b.window, in.a.CPCount())
		}
		in.a.Activemap.Set(uint64(vbn))
	}
	release(in.phys, b.vbns)
	in.stats.BucketsCommitted++
	te := b.tetris
	in.recycleBucket(b)

	// Refill: when the whole window has been committed, fill the next one.
	te.committedBuckets++
	if te.committedBuckets == te.initialBuckets && !in.draining && in.inCP {
		in.requestWindow(te.group)
	}
}

// distinctBlocks counts the metafile blocks a commit of bns dirties, where
// one metafile block covers per consecutive block numbers. A bucket's numbers
// arrive in order, so a block is counted when the run on it begins.
func distinctBlocks[T ~uint64](bns []T, per uint64) int {
	n := 0
	last := ^uint64(0)
	for _, bn := range bns {
		if blk := uint64(bn) / per; blk != last {
			n++
			last = blk
		}
	}
	return n
}

// sendTetris builds the window's write I/O and submits it to RAID,
// charging parity XOR to the RAID category. The per-drive lists go back to
// the free list, emptied, when RAID reports every drive I/O complete.
func (in *Infra) sendTetris(t *sim.Thread, te *Tetris) {
	t.Consume(in.costs.TetrisSend)
	in.stats.TetrisesSent++
	in.stats.TetrisBlocks += uint64(te.blocks)
	in.stats.TetrisSize.Observe(int64(te.blocks))
	if tr := t.Tracer(); tr != nil {
		tr.InstantArg(obs.PidInfra, in.groupTrack(tr, te.group), "tetris", "tetris send",
			int64(t.Now()), int64(te.blocks))
	}
	in.pendingIO++
	writes := te.perDrive
	// Detach so a bucket inserted into this window later (the
	// EqualProgress=false ablation) accumulates a fresh, smaller I/O
	// instead of resending these blocks.
	te.perDrive, te.blocks = nil, 0
	res := in.a.Group(te.group).Write(writes, in.costs.ParityPerBlock, func() {
		for d := range writes {
			clear(writes[d])
			writes[d] = writes[d][:0]
		}
		in.listPool.Put(writes)
		in.ioDone()
	})
	if res.ParityCPU > 0 {
		t.ConsumeAs(sim.CatRAID, res.ParityCPU)
	}
}

// AddIO registers an externally-submitted storage I/O (the CP engine's
// metafile writes) with the drain accounting.
func (in *Infra) AddIO() { in.pendingIO++ }

// IODone is the completion callback for AddIO.
func (in *Infra) IODone() { in.ioDone() }

func (in *Infra) ioDone() {
	in.pendingIO--
	if in.pendingIO == 0 {
		in.drainCond.Broadcast()
	}
}

func (in *Infra) opDone() {
	in.pendingOps--
	if in.pendingOps == 0 {
		in.drainCond.Broadcast()
	}
}
