package aggregate

import (
	"fmt"

	"wafl/internal/block"
	"wafl/internal/fs"
)

// AmapWrite is one block write produced by planning the activemap flush.
type AmapWrite struct {
	VBN       block.VBN
	Data      []byte
	MediaOnly bool // storage.WriteReq.MediaOnly
}

// PlanAmapFlush cleans the aggregate activemap metafile and returns the
// block writes to issue. The activemap is self-referential: cleaning one of
// its blocks allocates a new VBN and frees the old one, and both bit
// changes may live in *other* activemap blocks — naively interleaving
// cleans with bit updates re-dirties already-cleaned blocks and never
// converges (the recursion WAFL's free-space machinery is specifically
// engineered around; cf. Kesavan et al., FAST'17).
//
// The algorithm here reaches a fixed point before writing anything:
//
//  1. Collect the set D of dirty activemap buffers plus every ancestor of a
//     member of D (ancestors are rewritten too, since child pointers move).
//  2. Pre-allocate a new VBN for every member of D (Set bits now). Any
//     newly-dirtied activemap block joins D and the loop repeats.
//  3. Pre-free every member's old location (Clear bits now); again, newly
//     dirtied blocks join D.
//  4. When D stops growing, the bit state is final. Clean bottom-up using
//     the pre-assigned VBNs — no further bit changes occur — and emit the
//     final images.
//
// alloc must return a free VBN suitable for metafile placement (the CP
// engine passes a cursor over a chosen Allocation Area that also avoids
// blocks freed in the running CP). The D-set is bounded by the total number
// of activemap buffers, so termination is structural.
//
// The plan's state lives in a.plan, kept across CPs, and so does the slice
// it returns, which is valid until the next plan.
func (a *Aggregate) PlanAmapFlush(alloc func() block.VBN) []AmapWrite {
	f := a.amapFile
	all := block.FBN(f.MaxBlocks()) // past every index at every level
	p := &a.plan
	p.reset()

	// enroll adds b (and implicitly, later, its ancestors) to D.
	enroll := func(b *fs.Buffer) bool {
		k := amapKey{b.Level(), b.Index()}
		if _, ok := p.index[k]; ok {
			return false
		}
		p.index[k] = len(p.members)
		p.members = append(p.members, amapMember{b: b, vbn: block.InvalidVBN})
		f.DirtyIntoCP(b)
		return true
	}

	for pass := 0; ; pass++ {
		if pass > 64 {
			panic("aggregate: activemap flush did not reach a fixed point")
		}
		changed := false
		// Step 1: sweep the frozen set and ancestors into D.
		for level := 0; level <= f.Height(); level++ {
			for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
				if enroll(b) {
					changed = true
				}
				p.anc = f.AppendAncestors(p.anc[:0], b)
				for _, anc := range p.anc {
					if enroll(anc) {
						changed = true
					}
				}
			}
		}
		// Step 2: pre-allocate for members without a new home, in
		// enrollment order: alloc() is a cursor, so handing out VBNs in
		// map-iteration order would nondeterministically shuffle which
		// activemap block lands where on disk. Set() may dirty further
		// activemap blocks; they are swept next pass.
		for i := range p.members {
			m := &p.members[i]
			if m.vbn != block.InvalidVBN {
				continue
			}
			vbn := alloc()
			if vbn == block.InvalidVBN {
				panic("aggregate: no space for activemap flush")
			}
			if tr := a.Sched().Tracer(); tr != nil {
				tr.NoteBlock(uint64(vbn), "amap flush plan")
			}
			a.Activemap.Set(uint64(vbn))
			m.vbn = vbn
			changed = true
		}
		// Step 3: pre-free old locations.
		for i := range p.members {
			m := &p.members[i]
			if m.prefreed {
				continue
			}
			m.prefreed = true
			if old := m.b.VBN(); old != block.InvalidVBN && old != 0 {
				a.Activemap.Clear(uint64(old))
			}
			changed = true
		}
		if !changed {
			break
		}
	}

	// Step 4: bit state is final; clean bottom-up with assigned VBNs.
	for level := 0; level <= f.Height(); level++ {
		for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
			i, planned := p.index[amapKey{level, idx}]
			if !planned {
				panic(fmt.Sprintf("aggregate: frozen activemap buffer (level %d, fbn %d) missing from flush plan", b.Level(), b.FBN()))
			}
			vbn := p.members[i].vbn
			img, mediaOnly, _, _ := f.CleanChild(b, block.InvalidVVBN, vbn) // old location already freed
			p.writes = append(p.writes, AmapWrite{VBN: vbn, Data: img.Bytes, MediaOnly: mediaOnly})
		}
	}
	if f.FrozenCount() != 0 {
		panic("aggregate: activemap flush left frozen buffers")
	}
	return p.writes
}

// amapKey names an activemap buffer by its place in the tree.
type amapKey struct {
	level int
	idx   block.FBN
}

// amapMember is one member of the flush set D: its buffer, the new home
// step 2 assigned it (InvalidVBN until then) and whether step 3 freed its
// old one.
type amapMember struct {
	b        *fs.Buffer
	vbn      block.VBN
	prefreed bool
}

// amapPlan is PlanAmapFlush's state: D's members in enrollment order, each
// member's position by key, the ancestor scratch and the writes.
type amapPlan struct {
	index   map[amapKey]int
	members []amapMember
	anc     []*fs.Buffer
	writes  []AmapWrite
}

// reset empties the plan, keeping what it has grown, and lets go of the
// last plan's buffers and images.
func (p *amapPlan) reset() {
	if p.index == nil {
		p.index = make(map[amapKey]int)
	}
	clear(p.index)
	clear(p.members)
	clear(p.anc)
	clear(p.writes)
	p.members, p.anc, p.writes = p.members[:0], p.anc[:0], p.writes[:0]
}
