package core

import (
	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/counters"
	"wafl/internal/sim"
	"wafl/internal/waffinity"
)

// space is the allocator's state for one block-number space: the aggregate's
// physical VBNs, or one volume's virtual VVBNs. The paper builds the
// infrastructure once and reuses it for both (§IV-D), and so does this type:
// Infra holds one instance for the aggregate and every volState embeds one.
// What lives here is what the two halves share — where free bits come from,
// the two per-CP fences that keep a block from being handed out twice or
// reused inside the CP that freed it, the loose free counter and the
// affinities the space's metafile work runs in. What differs stays with its
// owner: tetris windows and AA selection are RAID geometry (Infra), vregion
// selection and the top-up cache are per volume (volState).
type space struct {
	idx  int // position in Infra.spaces: 0 the aggregate, 1+ID a volume
	amap *bitmap.Activemap

	// find yields raw free candidates: amap.FindFree, or the free-space
	// index's FindFree for an indexed volume (which skips exhausted words
	// and already excludes summary-held VVBNs). held, when set, is the
	// legacy per-candidate check (HierarchicalFree=false): a clear bit a
	// snapshot still holds is not allocatable, and finding out examines —
	// and is charged — one summary-map word per candidate.
	find func(dst []uint64, lo, hi uint64, max int) ([]uint64, int)
	held func(bn uint64) bool

	pendingFree *bitset // freed in the running CP: not reusable until it commits
	reserved    *bitset // in filled, uncommitted buckets

	// scanBuf is the reusable find scratch. Safe to share across fill
	// messages: the cooperative scheduler never switches threads inside a
	// scan, and the raw candidates are copied out before the next one starts.
	scanBuf []uint64

	counter counters.ID // the space's loosely-accounted free count (§III-C)

	whole  *waffinity.Affinity   // the whole-metafile affinity (AggrVBN, VolVBN)
	ranges []*waffinity.Affinity // its Range partitions, by metafile block

	// open is free's grouping scratch, indexed by metafile block: the commit
	// record the running free call fills for that block, nil between calls.
	open []*freeCommit
}

// newSpace registers the next space: its counter (aggregate first, then
// volumes by ID, which is the order tokens index deltas in), its fences, and
// the hook that feeds pendingFree.
func (in *Infra) newSpace(name string, amap *bitmap.Activemap, nbits, free uint64, whole *waffinity.Affinity, ranges []*waffinity.Affinity) *space {
	sp := &space{
		idx: len(in.spaces), amap: amap, find: amap.FindFree,
		pendingFree: newBitset(nbits), reserved: newBitset(nbits),
		counter: in.global.Register(name), whole: whole, ranges: ranges,
		open: make([]*freeCommit, bitmap.BlockOf(nbits-1)+1),
	}
	in.global.Add(sp.counter, int64(free))
	if !in.opts.InfraParallel {
		// Serialized (the §V-A instrumented baseline, modelling the pre-
		// White-Alligator design where one thread owned all metafile
		// access): every infrastructure message — aggregate and volume
		// alike — funnels through the single AggrVBN affinity.
		sp.whole, sp.ranges = in.h.Aggrs[0].AggrVBN, nil
	}
	// Observe every free so same-CP reuse is blocked. Chain, don't clobber:
	// the aggregate's AA counters and a volume's free-space index are already
	// hooked here and must keep seeing every transition.
	prev := amap.OnChange
	amap.OnChange = func(bn uint64, used bool) {
		if prev != nil {
			prev(bn, used)
		}
		if !used && in.inCP {
			sp.pendingFree.set(bn)
		}
	}
	in.spaces = append(in.spaces, sp)
	return sp
}

// aff returns the affinity for work on block fbn of the space's activemap
// metafile: the Range partition covering it when the infrastructure is
// parallelized, the whole-metafile affinity otherwise.
func (sp *space) aff(fbn block.FBN) *waffinity.Affinity {
	if len(sp.ranges) == 0 {
		return sp.whole
	}
	return sp.ranges[int(fbn)%len(sp.ranges)]
}

// findFree scans [lo, hi) for up to max allocatable block numbers: free on
// disk, not freed in this CP, not reserved by another bucket, not
// snapshot-held. It keeps scanning until it has max candidates or the range
// is exhausted, and returns the candidates, appended to dst[:0], and the
// number of bitmap words examined.
func findFree[T ~uint64](sp *space, dst []T, lo, hi uint64, max int) ([]T, int) {
	out := dst[:0]
	words := 0
	for lo < hi && len(out) < max {
		raw, w := sp.find(sp.scanBuf[:0], lo, hi, max)
		sp.scanBuf = raw // retain grown capacity for the next scan
		words += w
		if len(raw) == 0 {
			break
		}
		for _, bn := range raw {
			if len(out) == max {
				break
			}
			if sp.pendingFree.test(bn) || sp.reserved.test(bn) {
				continue
			}
			if sp.held != nil {
				words++
				if sp.held(bn) {
					continue
				}
			}
			out = append(out, T(bn))
		}
		lo = raw[len(raw)-1] + 1
	}
	return out, words
}

// reserve fences a filled bucket's block numbers off from every other fill
// until the bucket is committed, returned unused, or dropped.
func reserve[T ~uint64](sp *space, bns []T) {
	for _, bn := range bns {
		sp.reserved.set(uint64(bn))
	}
}

// release lifts the reservation of a bucket's block numbers.
func release[T ~uint64](sp *space, bns []T) {
	for _, bn := range bns {
		sp.reserved.clear(uint64(bn))
	}
}

// endCP lifts both fences after the superblock commit: blocks freed during
// the CP become allocatable.
func (sp *space) endCP() {
	sp.pendingFree.reset()
	sp.reserved.reset()
}

// send dispatches fn as an infrastructure message in aff and counts it
// outstanding until it completes — the one place the allocator sends, so
// every fill, commit and free is seen by the drains.
func (in *Infra) send(aff *waffinity.Affinity, fn func(*sim.Thread)) {
	in.pendingOps++
	in.w.Send(aff, sim.CatInfra, fn, in.done)
}

// free returns block numbers to sp. They are grouped by owning metafile
// block, and one free-commit message per block goes to that block's Range
// affinity — this is where a random overwrite workload, whose frees scatter
// across the space, generates many more metafile-block updates (and
// messages) than a sequential one (§V-A2). bns is not retained.
func (in *Infra) free(sp *space, bns []uint64) {
	// Group by metafile block, sending in first-touch order.
	order := in.freeOrder[:0]
	for _, bn := range bns {
		fbn := bitmap.BlockOf(bn)
		fc := sp.open[fbn]
		if fc == nil {
			fc = in.commitPool.Get()
			fc.sp, fc.fbn = sp, fbn
			sp.open[fbn] = fc
			order = append(order, fc)
		}
		fc.bns = append(fc.bns, bn)
	}
	for _, fc := range order {
		sp.open[fc.fbn] = nil
		in.stats.StageCommitMsgs++
		in.send(sp.aff(fc.fbn), fc.run)
	}
	clear(order)
	in.freeOrder = order[:0]
}

// freeCommit is one free-commit message: the frees of one space on one of
// its metafile blocks, with its body, the method value commit, bound once.
// It goes back to Infra.commitPool when the body has applied the frees; a
// worker killed mid-message never returns it.
type freeCommit struct {
	in  *Infra
	sp  *space
	fbn block.FBN
	bns []uint64
	run func(*sim.Thread)
}

func (fc *freeCommit) commit(wt *sim.Thread) {
	in := fc.in
	wt.ConsumeAs(sim.CatInfra, in.costs.CommitPerBlock+sim.Duration(len(fc.bns))*in.costs.CommitPerBit)
	for _, bn := range fc.bns {
		fc.sp.amap.Clear(bn)
	}
	in.stats.FreesCommitted += uint64(len(fc.bns))
	fc.sp, fc.bns = nil, fc.bns[:0]
	in.commitPool.Put(fc)
}
