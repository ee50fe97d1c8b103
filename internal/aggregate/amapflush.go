package aggregate

import (
	"fmt"

	"wafl/internal/block"
	"wafl/internal/fs"
)

// AmapWrite is one block write produced by planning the activemap flush.
type AmapWrite struct {
	VBN  block.VBN
	Data []byte
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
func (a *Aggregate) PlanAmapFlush(alloc func() block.VBN) []AmapWrite {
	f := a.amapFile
	type key struct {
		level int
		idx   block.FBN
	}
	keyOf := func(b *fs.Buffer) key { return key{b.Level(), b.Index()} }

	assigned := make(map[key]block.VBN)
	member := make(map[key]*fs.Buffer)
	prefreed := make(map[key]bool)
	// memberOrder fixes the VBN-assignment order: alloc() is a cursor, so
	// handing out VBNs in map-iteration order would nondeterministically
	// shuffle which activemap block lands where on disk.
	var memberOrder []key

	// enroll adds b (and implicitly, later, its ancestors) to D.
	enroll := func(b *fs.Buffer) bool {
		k := keyOf(b)
		if _, ok := member[k]; ok {
			return false
		}
		member[k] = b
		memberOrder = append(memberOrder, k)
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
			for _, b := range f.FrozenLevel(level) {
				if enroll(b) {
					changed = true
				}
				for _, anc := range f.AncestorPath(b) {
					if enroll(anc) {
						changed = true
					}
				}
			}
		}
		// Step 2: pre-allocate for members without a new home. Set() may
		// dirty further activemap blocks; they are swept next pass.
		for _, k := range memberOrder {
			if _, ok := assigned[k]; ok {
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
			assigned[k] = vbn
			changed = true
		}
		// Step 3: pre-free old locations.
		for _, k := range memberOrder {
			if prefreed[k] {
				continue
			}
			prefreed[k] = true
			if old := member[k].VBN(); old != block.InvalidVBN && old != 0 {
				a.Activemap.Clear(uint64(old))
			}
			changed = true
		}
		if !changed {
			break
		}
	}

	// Step 4: bit state is final; clean bottom-up with assigned VBNs.
	var writes []AmapWrite
	for level := 0; level <= f.Height(); level++ {
		for _, b := range f.FrozenLevel(level) {
			k := keyOf(b)
			vbn, ok := assigned[k]
			if !ok {
				panic(fmt.Sprintf("aggregate: frozen activemap buffer (level %d, fbn %d) missing from flush plan", b.Level(), b.FBN()))
			}
			img, _, _ := f.CleanChild(b, block.InvalidVVBN, vbn) // old location already freed
			writes = append(writes, AmapWrite{VBN: vbn, Data: img})
		}
	}
	if f.FrozenCount() != 0 {
		panic("aggregate: activemap flush left frozen buffers")
	}
	return writes
}
