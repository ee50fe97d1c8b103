package core

import (
	"wafl/internal/aggregate"
	"wafl/internal/bitmap"
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
	if in.opts.CleanInSerialAffinity {
		return // serial mode fills inline on demand
	}
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
	if in.opts.CleanInSerialAffinity {
		return
	}
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
		for _, vbn := range b.vbns {
			in.reserved.clear(uint64(vbn))
		}
		te := b.tetris
		te.outstanding--
		te.initialBuckets-- // it will never be committed either
		if te.outstanding == 0 && te.blocks > 0 {
			in.sendTetris(t, te)
		}
	}
	for _, vs := range in.vols {
		for _, vb := range vs.cache.TakeAll() {
			for _, vv := range vb.vvbns {
				vs.reserved.clear(uint64(vv))
			}
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
	in.pendingFree.reset()
	in.reserved.reset()
	for gi := range in.usedAAs {
		in.usedAAs[gi] = make(map[int]bool)
		in.win[gi] = windowState{aa: -1}
	}
	for _, vs := range in.vols {
		vs.pendingFree.reset()
		vs.reserved.reset()
		vs.usedRegions = make(map[int]bool)
		vs.region = -1
	}
}

// CommitFrees sends free-commit messages for a stage of old block numbers:
// physical VBNs when volID < 0, VVBNs of the given volume otherwise. The
// numbers are grouped by owning metafile block, and one message per block
// goes to that block's Range affinity — this is where a random overwrite
// workload, whose frees scatter across the VBN space, generates many more
// metafile-block updates (and messages) than a sequential one (§V-A2).
func (in *Infra) CommitFrees(t *sim.Thread, volID int, bns []uint64) {
	if len(bns) == 0 {
		return
	}
	// Group by metafile block, preserving first-touch order.
	order := make([]block.FBN, 0, 4)
	groups := make(map[block.FBN][]uint64)
	for _, bn := range bns {
		fbn := bitmap.BlockOf(bn)
		if _, ok := groups[fbn]; !ok {
			order = append(order, fbn)
		}
		groups[fbn] = append(groups[fbn], bn)
	}
	for _, fbn := range order {
		batch := groups[fbn]
		in.stats.StageCommitMsgs++
		if in.opts.CleanInSerialAffinity {
			// Exclusive-access mode: apply inline.
			in.commitFreesBody(t, volID, batch)
			continue
		}
		in.pendingOps++
		var aff = in.aggrRangeAff(fbn)
		if volID >= 0 {
			aff = in.volRangeAff(volID, fbn)
		}
		volID := volID
		in.w.Send(aff, sim.CatInfra, func(wt *sim.Thread) {
			in.commitFreesBody(wt, volID, batch)
		}, func() { in.opDone() })
	}
}

// commitFreesBody clears one metafile block's worth of bits.
func (in *Infra) commitFreesBody(t *sim.Thread, volID int, batch []uint64) {
	t.ConsumeAs(sim.CatInfra, in.costs.CommitPerBlock+sim.Duration(len(batch))*in.costs.CommitPerBit)
	if volID < 0 {
		for _, bn := range batch {
			in.a.Activemap.Clear(bn)
		}
	} else {
		vs := in.vols[volID]
		for _, bn := range batch {
			vs.vol.Activemap.Clear(bn)
		}
	}
	in.stats.FreesCommitted += uint64(len(batch))
}

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
		vbns, words := in.findFreePhys(in.metaCursor, total, 1)
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

// AggrFreeID returns the aggregate free-block counter ID.
func (in *Infra) AggrFreeID() counters.ID { return in.aggrFreeCtr }

// VolFreeID returns the volume's free-block counter ID.
func (in *Infra) VolFreeID(volID int) counters.ID { return in.vols[volID].freeCounter }

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
	in.Counters.Add(id, delta)
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
