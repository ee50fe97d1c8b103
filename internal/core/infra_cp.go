package core

import (
	"wafl/internal/aggregate"
	"wafl/internal/block"
	"wafl/internal/counters"
	"wafl/internal/sim"
)

// StartCP prepares the infrastructure for a consistency point: it begins
// filling windowsAhead tetris windows per RAID group and pre-fills virtual
// buckets for every volume with frozen work.
func (in *Infra) StartCP(dirtyVols []*aggregate.Volume) {
	in.inCP = true
	in.draining = false
	for gi := 0; gi < in.a.Groups(); gi++ {
		for k := 0; k < windowsAhead; k++ {
			in.requestWindow(gi)
		}
	}
	for _, v := range dirtyVols {
		vs := in.vols[v.ID()]
		for vs.cache.Len()+vs.pendingFills < volBucketsReady {
			in.requestVBucket(vs)
		}
	}
}

// Prefill restarts bucket filling mid-CP (the CP engine calls it before the
// metafile-cleaning phase, which needs physical buckets again after a
// drain).
func (in *Infra) Prefill() {
	in.draining = false
	for gi := 0; gi < in.a.Groups(); gi++ {
		in.requestWindow(gi)
	}
}

// DrainOps quiesces the infrastructure: it stops refills, discards unused
// buckets (releasing their reservations and force-completing their
// tetrises), and blocks until every outstanding infrastructure message
// (fills, commits, free stages) has finished — the point at which the
// allocation-bitmap state is final. Cleaner threads must already be idle
// (all buckets returned, all stages committed). Storage I/O keeps flowing;
// the CP engine overlaps it with the metafile phases and only waits for it
// (via DrainIO) before the superblock commit.
func (in *Infra) DrainOps(t *sim.Thread) {
	in.draining = true
	in.cacheMu.Lock(t)
	cache := in.cache.TakeAll()
	in.cacheMu.Unlock(t)
	for _, b := range cache {
		te := b.tetris
		in.dropBucket(b)
		te.outstanding--
		te.initialBuckets-- // it will never be committed either
		if te.outstanding == 0 && te.blocks > 0 {
			in.sendTetris(t, te)
		}
	}
	for _, vs := range in.vols {
		for _, vb := range vs.cache.TakeAll() {
			release(vs.space, vb.vvbns)
			in.recycleVBucket(vb)
		}
	}
	for in.pendingOps > 0 {
		in.drainCond.Wait(t)
	}
}

// DrainFrees waits for outstanding infrastructure messages — in particular
// staged free commits — WITHOUT entering drain mode: bucket caches and fill
// pipelines keep running. The CP engine calls it between file-zombie and
// snapshot-zombie processing, where snapshot reclaim must observe the
// settled activemap.
func (in *Infra) DrainFrees(t *sim.Thread) {
	for in.pendingOps > 0 {
		in.drainCond.Wait(t)
	}
}

// DrainIO waits for every outstanding storage I/O after ops are drained.
func (in *Infra) DrainIO(t *sim.Thread) {
	for in.pendingOps > 0 || in.pendingIO > 0 {
		in.drainCond.Wait(t)
	}
}

// EndCP clears per-CP state after the superblock commit: blocks freed
// during the CP become allocatable and AA/region exclusions lift.
func (in *Infra) EndCP() {
	in.inCP = false
	for _, sp := range in.spaces {
		sp.endCP()
	}
	for gi := range in.usedAAs {
		in.usedAAs[gi] = make(map[int]bool)
		in.win[gi] = windowState{aa: -1}
	}
	for _, vs := range in.vols {
		vs.usedRegions = make(map[int]bool)
		vs.region = -1
	}
}

// Reclaim returns blocks freed outside any cleaner thread — a reaped zombie
// file, an applied SnapRestore, a deleted snapshot, a completed clone split —
// to the allocator: pvbns leave the aggregate's space and vvbns volume v's, as
// free-commit messages (physical first), and both loose free counters are
// credited directly, no cleaner token being in play. It is the only way the
// CP engine frees, so a new caller cannot forget a credit.
//
// allocatable is the change in v's allocatable VVBNs (free = !active &&
// !summary), which is not len(vvbns): a block a snapshot still summary-holds
// leaves the active map without becoming allocatable, a reclaim that drops a
// block's last holder makes it allocatable without clearing an active bit,
// and a clone bind — negative — activates blocks the counter had as free.
func (in *Infra) Reclaim(v *aggregate.Volume, pvbns, vvbns []uint64, allocatable int) {
	vs := in.vols[v.ID()]
	in.free(in.phys, pvbns)
	in.free(vs.space, vvbns)
	in.global.Add(in.phys.counter, int64(len(pvbns)))
	in.global.Add(vs.counter, int64(allocatable))
}

// AdjustAggrFree corrects the loose aggregate free counter by delta: the
// activemap flush planner allocates and frees directly, and the CP engine
// reconciles the counter with the net change (§III-C's audit-and-correct).
func (in *Infra) AdjustAggrFree(delta int64) { in.global.Add(in.phys.counter, delta) }

// FindMetaVBN returns a free physical block for metafile placement (the
// activemap flush planner's allocation source), scanning from a persistent
// cursor and skipping blocks freed or reserved in the running CP. It does
// not claim the block; the caller sets the bit.
func (in *Infra) FindMetaVBN(t *sim.Thread) block.VBN {
	total := in.a.Geometry().TotalBlocks()
	if in.metaCursor == 0 || in.metaCursor >= total {
		in.metaCursor = 1
	}
	for wrap := 0; wrap < 2; wrap++ {
		vbns, words := findFree(in.phys, in.metaScan, in.metaCursor, total, 1)
		in.metaScan = vbns
		if t != nil {
			t.ConsumeAs(sim.CatInfra, sim.Duration(words)*in.costs.FillPerWord)
		}
		if len(vbns) > 0 {
			in.metaCursor = uint64(vbns[0]) + 1
			return vbns[0]
		}
		in.metaCursor = 1
	}
	panic("core: no free block for metafile allocation (aggregate full?)")
}

// CleanerCounterAdd applies a counter update from a cleaner thread. With
// loose accounting the delta is staged in the thread's token at zero
// synchronization cost; otherwise the global counter lock is taken for
// every update — the contended pre-loose-accounting path (§III-C), kept as
// an ablation.
func (in *Infra) CleanerCounterAdd(t *sim.Thread, tok *counters.Token, id counters.ID, delta int64) {
	if in.opts.LooseAccounting {
		tok.Add(id, delta)
		return
	}
	in.counterMu.Lock(t)
	t.Consume(in.costs.CounterDirect)
	in.global.Add(id, delta)
	in.counterMu.Unlock(t)
}

// FlushToken applies a cleaner's staged counter deltas in one batched
// update under the counter lock.
func (in *Infra) FlushToken(t *sim.Thread, tok *counters.Token) {
	if tok.Staged() == 0 {
		return
	}
	in.counterMu.Lock(t)
	t.Consume(in.costs.TokenFlush)
	tok.Flush()
	in.counterMu.Unlock(t)
}
