package core

import (
	"fmt"

	"wafl/internal/aggregate"
	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/obs"
	"wafl/internal/sim"
)

// vRegionBits is the size of a virtual Allocation Area: the VVBN span
// covered by one volume-activemap block, so a fill touches one metafile
// block (and one Range affinity).
const vRegionBits = bitmap.BitsPerBlock

// scanVBucket finds the next chunk of free VVBNs for the volume, appending
// them to dst[:0] and charging the scan to the executing thread.
func (in *Infra) scanVBucket(t *sim.Thread, vs *volState, dst []block.VVBN) []block.VVBN {
	chunk := uint64(in.opts.ChunkBlocks)
	vvbns := dst[:0]
	fillWords := 0
	for len(vvbns) == 0 {
		if vs.region < 0 || vs.cursor >= uint64(vs.region+1)*vRegionBits {
			// The vregion with the most allocatable VVBNs (free =
			// !active && !summary, which the index counts).
			r := claim(vs.usedRegions, func() int {
				return mostFree(vs.usedRegions, vs.vol.FreeIdx.RegionFree)
			})
			if r < 0 {
				panic("core: volume out of virtual space (volume full)")
			}
			vs.region = r
			vs.cursor = uint64(r) * vRegionBits
		}
		hi := vs.cursor + chunk
		if regionEnd := uint64(vs.region+1) * vRegionBits; hi > regionEnd {
			hi = regionEnd
		}
		if limit := vs.vol.VVBNBlocks(); hi > limit {
			hi = limit
		}
		var words int
		vvbns, words = findFree(vs.space, vvbns, vs.cursor, hi, int(chunk))
		fillWords += words
		vs.cursor = hi
	}
	in.stats.FillWords += uint64(fillWords)
	in.stats.VFillWords += uint64(fillWords)
	t.ConsumeAs(sim.CatInfra, in.costs.FillFixed+sim.Duration(fillWords)*in.costs.FillPerWord)
	return vvbns
}

// requestVBucket sends a fill message that builds one virtual bucket for
// the volume: it reserves the scanned VVBNs and adds the bucket to the
// volume's cache.
func (in *Infra) requestVBucket(vs *volState) {
	vs.pendingFills++
	in.send(vs.aff(bitmap.BlockOf(vs.cursor)), func(t *sim.Thread) {
		vb := in.vbucketPool.Get()
		vb.vvbns = in.scanVBucket(t, vs, vb.vvbns)
		vs.pendingFills--
		if in.draining || !in.inCP {
			// Quiescing: drop the fill (nothing was reserved yet).
			in.recycleVBucket(vb)
			return
		}
		reserve(vs.space, vb.vvbns)
		vb.vol = vs.vol
		vs.cache.Push(vb)
		in.stats.VBucketsFilled++
		vs.cond.Signal()
	})
}

// GetVBucket returns a virtual bucket for the volume, blocking until one is
// available, and tops the per-volume cache back up to its target.
func (in *Infra) GetVBucket(t *sim.Thread, vol *aggregate.Volume) *VBucket {
	t.Consume(in.costs.BucketOp)
	getStart := t.Now()
	vs := in.vols[vol.ID()]
	waited := false
	for vs.cache.Len() == 0 {
		if vs.pendingFills == 0 && in.inCP && !in.draining {
			in.requestVBucket(vs)
		}
		in.stats.GetWaits++
		waited = true
		vs.cond.Wait(t)
	}
	in.stats.VGetWait.Observe(int64(t.Now() - getStart))
	if tr := t.Tracer(); tr != nil && waited {
		tr.Span(obs.PidThreads, t.TrackID(), "alloc", "vGET wait", int64(getStart), int64(t.Now()))
	}
	vb := vs.cache.Pop()
	if !in.draining && in.inCP && vs.cache.Len()+vs.pendingFills < volBucketsReady {
		in.requestVBucket(vs)
	}
	return vb
}

// PutVBucket returns a used virtual bucket; a commit message applies its
// VVBN allocations and container-map entries in batch.
func (in *Infra) PutVBucket(t *sim.Thread, vb *VBucket) {
	t.Consume(in.costs.BucketOp)
	if tr := t.Tracer(); tr != nil {
		tr.InstantArg(obs.PidThreads, t.TrackID(), "alloc", "PUT vbucket",
			int64(t.Now()), int64(vb.next))
	}
	vs := in.vols[vb.vol.ID()]
	if vb.next == 0 {
		// Nothing used: release reservations directly.
		release(vs.space, vb.vvbns)
		in.recycleVBucket(vb)
		return
	}
	in.send(vs.aff(bitmap.BlockOf(uint64(vb.vvbns[0]))), func(wt *sim.Thread) {
		in.commitVBucket(wt, vs, vb)
	})
}

// commitVBucket applies a used virtual bucket's allocations and container
// entries, and recycles it.
func (in *Infra) commitVBucket(wt *sim.Thread, vs *volState, vb *VBucket) {
	used := vb.vvbns[:vb.next]
	amapBlocks := distinctBlocks(used, bitmap.BitsPerBlock)
	contBlocks := distinctBlocks(used, aggregate.ContainerEntriesPerBlock)
	wt.ConsumeAs(sim.CatInfra,
		sim.Duration(amapBlocks+contBlocks)*in.costs.CommitPerBlock+
			sim.Duration(len(used))*in.costs.CommitPerBit+
			sim.Duration(len(used))*in.costs.ContainerEntry)
	for i, vv := range used {
		if vb.vol.Summary.IsSet(uint64(vv)) {
			panic(fmt.Sprintf("core: vol %d allocated snapshot-held vvbn %d", vb.vol.ID(), vv))
		}
		vb.vol.Activemap.Set(uint64(vv))
		vb.vol.SetContainer(vv, vb.pvbns[i])
	}
	release(vs.space, vb.vvbns)
	in.recycleVBucket(vb)
	in.stats.VBucketsCommitted++
}
