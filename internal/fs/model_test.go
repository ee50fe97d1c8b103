package fs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"wafl/internal/block"
)

// pos names a buffer by its position in the tree, the key the map-based
// index used.
type pos struct {
	level int
	idx   block.FBN
}

func posOf(b *Buffer) pos { return pos{b.level, b.Index()} }

// sparseFBN draws an FBN for a tree of the given height: mostly near the
// bottom of the file, sometimes around an indirect-block boundary or at the
// very top of the address space, so that most index slots stay untouched.
func sparseFBN(rng *rand.Rand, height int) block.FBN {
	max := block.FBN(1) << (radixBits * uint(height))
	bases := []block.FBN{0, 0, 0, 200}
	if height >= 2 {
		bases = append(bases, 1<<radixBits-20, 3<<radixBits, max-40)
	}
	if height >= 3 {
		bases = append(bases, 1<<(2*radixBits)-20, 5<<(2*radixBits)+7)
	}
	return (bases[rng.Intn(len(bases))] + block.FBN(rng.Intn(40))) % max
}

// TestModelRandomOps drives a File through random interleavings of client
// writes, CP freezes, mid-CP overwrites (CoW), dirtying into the running CP
// and cleans, on trees of height 1 to 3 with sparse high FBNs. At every step
// it compares the observable content, the residency of every position
// (Buffer, ResidentBuffers) and the frozen counts against plain map
// reference models, and on a random quarter of the steps the frozen lists
// themselves — so cleaned entries and repeats pile up in between, as they
// do in a CP.
func TestModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		height := int(seed-1)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		f := NewFile(1, height)
		model := make(map[block.FBN][]byte)
		resident := make(map[pos]bool)
		dirty := make(map[pos]bool)  // open generation
		frozen := make(map[pos]bool) // running CP
		loc := uint64(100)
		inCP := false

		clean := func(b *Buffer) {
			p := posOf(b)
			f.CleanChild(b, block.VVBN(loc), block.VBN(loc+1))
			loc += 2
			delete(frozen, p)
			if p.level < height {
				parent := pos{p.level + 1, p.idx >> radixBits}
				resident[parent] = true
				frozen[parent] = true
			}
		}
		cleanAll := func() {
			for level := 0; level <= f.Height(); level++ {
				for _, b := range f.FrozenLevel(level) {
					clean(b)
				}
			}
		}
		check := func(step int) {
			t.Helper()
			for fbn, want := range model {
				got := f.ReadBlock(fbn)
				if got == nil || !bytes.Equal(got[:len(want)], want) {
					t.Fatalf("seed %d step %d: fbn %d mismatch", seed, step, fbn)
				}
			}
			if f.ResidentBuffers() != len(resident) {
				t.Fatalf("seed %d step %d: %d resident buffers, model has %d", seed, step, f.ResidentBuffers(), len(resident))
			}
			for p := range resident {
				b := f.Buffer(p.level, p.idx)
				if b == nil || posOf(b) != p {
					t.Fatalf("seed %d step %d: resident %+v not found", seed, step, p)
				}
				// Every position above a resident buffer is either in the
				// model or must read as missing: the demand-load path
				// branches on a nil indirect.
				for l, idx := p.level+1, p.idx>>radixBits; l <= height; l, idx = l+1, idx>>radixBits {
					if got := f.Buffer(l, idx) != nil; got != resident[pos{l, idx}] {
						t.Fatalf("seed %d step %d: Buffer(%d, %d) resident=%v, model says %v", seed, step, l, idx, got, !got)
					}
				}
			}
			for i := 0; i < 8; i++ {
				p := pos{0, sparseFBN(rng, height)}
				if got := f.Buffer(p.level, p.idx) != nil; got != resident[p] {
					t.Fatalf("seed %d step %d: Buffer(0, %d) resident=%v, model says %v", seed, step, p.idx, got, !got)
				}
			}
			if f.DirtyCount() != len(dirty) || f.FrozenCount() != len(frozen) {
				t.Fatalf("seed %d step %d: dirty %d frozen %d, model %d / %d", seed, step,
					f.DirtyCount(), f.FrozenCount(), len(dirty), len(frozen))
			}
			if rng.Intn(4) != 0 {
				return
			}
			for level := 0; level <= height; level++ {
				got := f.FrozenLevel(level)
				want := 0
				for p := range frozen {
					if p.level == level {
						want++
					}
				}
				if len(got) != want || f.FrozenLevelCount(level) != want {
					t.Fatalf("seed %d step %d: level %d lists %d frozen buffers (count %d), model has %d",
						seed, step, level, len(got), f.FrozenLevelCount(level), want)
				}
				for i, b := range got {
					if !b.DirtyFrozen() || !frozen[posOf(b)] || (i > 0 && got[i-1].FBN() >= b.FBN()) {
						t.Fatalf("seed %d step %d: level %d entry %d (fbn %d) cleaned, unknown or out of order", seed, step, level, i, b.FBN())
					}
				}
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(12); {
			case op < 7: // client write
				fbn := sparseFBN(rng, height)
				payload := make([]byte, 32)
				rng.Read(payload)
				f.WriteBlock(fbn, payload)
				model[fbn] = payload
				resident[pos{0, fbn}] = true
				dirty[pos{0, fbn}] = true
			case op < 8: // freeze (start CP) if none running
				if !inCP && f.DirtyCount() > 0 {
					f.Freeze()
					inCP = true
					for p := range dirty {
						frozen[p] = true
					}
					clear(dirty)
				}
			case op < 9: // partially clean the frozen set
				if inCP {
					l0 := f.FrozenLevel(0)
					for _, b := range l0[:min(3, len(l0))] {
						clean(b)
					}
				}
			case op < 11: // dirty a resident block into the running CP
				if inCP && len(model) > 0 {
					fbn := sparseFBN(rng, height)
					if b := f.Buffer(0, fbn); b != nil {
						f.DirtyIntoCP(b)
						frozen[pos{0, fbn}] = true
					}
				}
			default: // finish the CP
				if inCP {
					cleanAll()
					inCP = false
				}
			}
			check(step)
		}
		if inCP {
			cleanAll()
		}
		check(-1)
		if f.FrozenCount() != 0 {
			t.Fatalf("seed %d: %d frozen left", seed, f.FrozenCount())
		}
	}
}

// TestRedirtyAfterCleanAppearsOnce pins what the map-keyed frozen set gave
// for free: a buffer cleaned and then dirtied into the same CP again (the
// PlanAmapFlush fixed-point pattern) is listed exactly once, in FBN order.
func TestRedirtyAfterCleanAppearsOnce(t *testing.T) {
	f := NewFile(1, 1)
	a, b := f.GetOrCreateL0(3), f.GetOrCreateL0(9)
	f.DirtyIntoCP(a)
	f.DirtyIntoCP(b)
	f.CleanChild(a, block.InvalidVVBN, 100)
	f.DirtyIntoCP(a)
	f.DirtyIntoCP(a)
	if got := f.FrozenLevel(0); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("frozen L0 = %v, want [fbn 3, fbn 9] once each", got)
	}
	if f.FrozenCount() != 3 { // a, b and the root dirtied by the clean
		t.Fatalf("frozen count = %d, want 3", f.FrozenCount())
	}
	f.CleanChild(a, block.InvalidVVBN, 101)
	f.CleanChild(b, block.InvalidVVBN, 102)
	if got := f.FrozenLevel(0); len(got) != 0 {
		t.Fatalf("frozen L0 = %v after cleaning both", got)
	}
	f.CleanChildAll(t)
	if f.FrozenCount() != 0 {
		t.Fatalf("%d frozen left", f.FrozenCount())
	}
}

// TestUnfrozenMetafileListsStayBounded: a metafile is only ever dirtied into
// the CP, never Freeze()d, so its lists must be emptied by the clean that
// takes the frozen count back to zero.
func TestUnfrozenMetafileListsStayBounded(t *testing.T) {
	f := NewFile(1, 2)
	for round := 0; round < 1000; round++ {
		for _, fbn := range []block.FBN{700, 2, 300} {
			f.DirtyIntoCP(f.GetOrCreateL0(fbn))
		}
		f.CleanChildAll(t)
		for l := range f.frozen {
			if n := len(f.frozen[l].bufs); n != 0 {
				t.Fatalf("round %d: level %d list holds %d entries with nothing frozen", round, l, n)
			}
			if c := cap(f.frozen[l].bufs); c > 8 {
				t.Fatalf("round %d: level %d list grew to capacity %d", round, l, c)
			}
		}
	}
}

// TestInterleavedRangeIterations is what concurrent JobL0Range cleaner jobs
// do across their Consume points: each takes its slice of one file's frozen
// L0 list and cleans it while the other cleans its own.
func TestInterleavedRangeIterations(t *testing.T) {
	f := NewFile(1, 2)
	const n = 600
	for i := 0; i < n; i++ {
		f.WriteBlock(block.FBN(i*389%n), []byte{byte(i)}) // out of FBN order
	}
	f.Freeze()
	if f.FrozenLevelCount(0) != n {
		t.Fatalf("frozen L0 count = %d, want %d", f.FrozenLevelCount(0), n)
	}
	lo := f.FrozenRange(0, 250)
	hi := f.FrozenRange(250, n+100) // taken before lo has cleaned anything
	var seenLo, seenHi []block.FBN
	for i := 0; i < len(lo) || i < len(hi); i++ {
		if i < len(lo) {
			seenLo = append(seenLo, lo[i].FBN())
			f.CleanChild(lo[i], block.VVBN(i), block.VBN(1000+i))
		}
		if i == 100 {
			hi = f.FrozenRange(250, n+100) // and again after it has
		}
		if i < len(hi) {
			seenHi = append(seenHi, hi[i].FBN())
			f.CleanChild(hi[i], block.VVBN(i), block.VBN(5000+i))
		}
	}
	want := make([]block.FBN, n)
	for i := range want {
		want[i] = block.FBN(i)
	}
	if !slices.Equal(seenLo, want[:250]) || !slices.Equal(seenHi, want[250:]) {
		t.Fatalf("range jobs saw %d and %d buffers, want FBNs [0,250) and [250,%d) in order", len(seenLo), len(seenHi), n)
	}
	if f.FrozenLevelCount(0) != 0 || len(f.FrozenRange(0, n)) != n {
		t.Fatal("FrozenRange must leave cleaned entries in place for its sibling jobs")
	}
	// The finalize job: levels 1 and up, dirtied out of order by the two.
	if l1 := f.FrozenLevel(1); len(l1) != 3 || l1[0].FBN() != 0 || l1[2].FBN() != 512 {
		t.Fatalf("frozen L1 = %v, want the three parents in order", l1)
	}
	f.CleanChildAll(t)
	if f.FrozenCount() != 0 {
		t.Fatalf("%d frozen left", f.FrozenCount())
	}
}

// indexFootprint counts the index nodes below n (n itself excluded: the root
// position is part of the File) and the slots they and n hold.
func indexFootprint(n *node) (nodes, slots int) {
	slots = len(n.kids) + len(n.leaves)
	for _, k := range n.kids {
		if k != nil {
			kn, ks := indexFootprint(k)
			nodes += 1 + kn
			slots += ks
		}
	}
	return nodes, slots
}

// TestIndexNeverSizedFromRecord: a corrupt (or merely huge) on-media record
// must not be able to make the mount path allocate. The index grows with
// the slots touched, one short path per touched block.
func TestIndexNeverSizedFromRecord(t *testing.T) {
	rec := Record{Ino: 9, SizeBlocks: 1 << 40, Height: 4, Flags: FlagInUse, RootVVBN: 5, RootVBN: 6}
	f, err := FileFromRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if nodes, slots := indexFootprint(&f.root); nodes != 0 || slots != 0 || f.ResidentBuffers() != 0 {
		t.Fatalf("fresh file from a %d-block record holds %d nodes, %d slots, %d buffers", rec.SizeBlocks, nodes, slots, f.ResidentBuffers())
	}
	if got := testing.AllocsPerRun(10, func() { FileFromRecord(rec) }); got > 1 {
		t.Fatalf("FileFromRecord allocates %v objects, want the File alone", got)
	}
	if f.Buffer(0, 1<<31) != nil || f.Buffer(4, 0) != nil || f.ReadBlock(1<<32-1) != nil {
		t.Fatal("lookups in an empty index must miss")
	}
	if nodes, slots := indexFootprint(&f.root); nodes != 0 || slots != 0 {
		t.Fatal("a lookup miss must not grow the index")
	}

	f.WriteBlock(1<<31, []byte{1})
	nodes, slots := indexFootprint(&f.root)
	if nodes > f.Height() || slots > f.Height()*block.PtrsPerBlock || f.ResidentBuffers() != 1 {
		t.Fatalf("touching fbn 1<<31 left %d nodes, %d slots, %d buffers; want O(height)", nodes, slots, f.ResidentBuffers())
	}
	if f.Buffer(0, 1<<31) == nil || f.Buffer(0, 1<<31-1) != nil || f.Buffer(0, 1<<31+1) != nil {
		t.Fatal("only the touched block may be resident")
	}
	for level := 1; level <= f.Height(); level++ {
		if f.Buffer(level, (1<<31)>>(radixBits*uint(level))) != nil {
			t.Fatalf("index node at level %d must not stand in for its indirect buffer", level)
		}
	}
	// Beyond the tree: a miss for readers, a panic for creators.
	if f.Buffer(0, 1<<32) != nil || f.Buffer(3, 256) != nil {
		t.Fatal("positions beyond the tree must miss")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("InstallBuffer beyond the tree must panic, not alias another position")
		}
	}()
	f.InstallBuffer(3, 256, nil, 1, 1)
}

// TestDataPathAllocations pins the costs the list-and-trie layout exists
// for: none of these may touch the heap.
func TestDataPathAllocations(t *testing.T) {
	const n = 4096
	payload := bytes.Repeat([]byte{7}, 64)

	// Freeze: a flag flip per buffer and a list hand-over. AllocsPerRun
	// calls its function runs+1 times; each call freezes a fresh file.
	const runs = 5
	files := make([]*File, 0, runs+1)
	for i := 0; i <= runs; i++ {
		f := NewFile(uint64(i), 2)
		for fbn := block.FBN(0); fbn < n; fbn++ {
			f.WriteBlock(fbn, payload)
		}
		files = append(files, f)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		if files[next].Freeze() != n {
			t.Fatal("short freeze")
		}
		next++
	}); got != 0 {
		t.Errorf("Freeze of %d dirty buffers allocates %v objects, want 0", n, got)
	}
	// A second generation reuses the list the first one left behind.
	f := files[0]
	f.CleanChildAll(t)
	for fbn := block.FBN(0); fbn < n; fbn++ {
		f.WriteBlock(fbn, payload)
	}
	if got := testing.AllocsPerRun(1, func() {
		if f.FrozenCount() == 0 {
			f.Freeze()
		}
	}); got != 0 {
		t.Errorf("second-generation Freeze allocates %v objects, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() { f.FrozenLevel(0); f.FrozenRange(100, 2000) }); got != 0 {
		t.Errorf("FrozenLevel/FrozenRange of an in-order list allocate %v objects, want 0", got)
	}

	// WriteBlock to a resident buffer: it adopts the array it is given.
	g := NewFile(99, 2)
	for fbn := block.FBN(0); fbn < n; fbn++ {
		g.WriteBlock(fbn, payload)
	}
	i := block.FBN(0)
	if got := testing.AllocsPerRun(1000, func() { g.WriteBlock(i%n, payload); i += 389 }); got != 0 {
		t.Errorf("WriteBlock to a resident buffer allocates %v objects, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if g.Buffer(0, i%n) == nil || g.Buffer(0, n+i%n) != nil || g.Buffer(1, 200) != nil || g.Buffer(0, 1<<20) != nil {
			t.Fatal("wrong residency")
		}
		i += 389
	}); got != 0 {
		t.Errorf("Buffer hit and miss allocate %v objects, want 0", got)
	}
}

// TestCleanLocationsNeverRepeatWithinCycle checks the allocator-facing
// contract: across a freeze/clean cycle each buffer gets exactly one new
// location and reports its previous one exactly once.
func TestCleanLocationsNeverRepeatWithinCycle(t *testing.T) {
	f := NewFile(1, 2)
	prev := make(map[block.FBN]block.VBN)
	loc := uint64(10)
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			f.WriteBlock(block.FBN(i*7%300), []byte{byte(round)})
		}
		f.Freeze()
		seen := make(map[block.VBN]bool)
		for level := 0; level <= f.Height(); level++ {
			for _, b := range f.FrozenLevel(level) {
				newVBN := block.VBN(loc)
				loc++
				_, _, oldVBN := f.CleanChild(b, block.VVBN(loc)<<32, newVBN)
				if seen[newVBN] {
					t.Fatal("location assigned twice")
				}
				seen[newVBN] = true
				if b.Level() == 0 {
					if want, ok := prev[b.FBN()]; ok && oldVBN != want {
						t.Fatalf("round %d fbn %d: freed %v, expected %v", round, b.FBN(), oldVBN, want)
					}
					prev[b.FBN()] = newVBN
				}
			}
		}
	}
}
