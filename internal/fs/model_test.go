package fs

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"wafl/internal/allocs"
	"wafl/internal/block"
)

// pos names a buffer by its position in the tree, the key the map-based
// index used.
type pos struct {
	level int
	idx   block.FBN
}

func posOf(b *Buffer) pos { return pos{b.Level(), b.Index()} }

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
					if !b.dirtyFrozen || !frozen[posOf(b)] || (i > 0 && got[i-1].FBN() >= b.FBN()) {
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
	f := NewMetafile(1, 2)
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
	f.InstallBuffer(3, 256, block.Image{}, 1, 1)
}

// TestDataPathAllocations pins the costs the list-and-trie layout exists
// for: none of these may touch the heap.
func TestDataPathAllocations(t *testing.T) {
	const n = 4096
	payload := bytes.Repeat([]byte{7}, 64)

	// Freeze: a flag flip per buffer and a list hand-over. allocs.Count
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
	if got := allocs.Count(runs, func() {
		if files[next].Freeze() != n {
			t.Fatal("short freeze")
		}
		next++
	}); got != 0 {
		t.Errorf("%d Freezes of %d dirty buffers allocate %d objects, want 0", runs, n, got)
	}
	// A second generation reuses the list the first one left behind.
	f := files[0]
	f.CleanChildAll(t)
	for fbn := block.FBN(0); fbn < n; fbn++ {
		f.WriteBlock(fbn, payload)
	}
	if got := allocs.Count(1, func() {
		if f.FrozenCount() == 0 {
			f.Freeze()
		}
	}); got != 0 {
		t.Errorf("second-generation Freeze allocates %d objects, want 0", got)
	}
	if got := allocs.Count(10, func() { f.FrozenLevel(0); f.FrozenRange(100, 2000) }); got != 0 {
		t.Errorf("10 FrozenLevel/FrozenRange calls on an in-order list allocate %d objects, want 0", got)
	}

	// WriteBlock to a resident buffer: it adopts the array it is given.
	g := NewFile(99, 2)
	for fbn := block.FBN(0); fbn < n; fbn++ {
		g.WriteBlock(fbn, payload)
	}
	i := block.FBN(0)
	if got := allocs.Count(1000, func() { g.WriteBlock(i%n, payload); i += 389 }); got != 0 {
		t.Errorf("1000 WriteBlocks to resident buffers allocate %d objects, want 0", got)
	}
	if got := allocs.Count(1000, func() {
		if g.Buffer(0, i%n) == nil || g.Buffer(0, n+i%n) != nil || g.Buffer(1, 200) != nil || g.Buffer(0, 1<<20) != nil {
			t.Fatal("wrong residency")
		}
		i += 389
	}); got != 0 {
		t.Errorf("1000 Buffer hits and misses allocate %d objects, want 0", got)
	}

	// An image written over a frozen buffer, as bytes or as a name: the old
	// image waits for the CP in the image pool's side home, which the
	// previous CP's overwrites sized, so no overwrite allocates once the
	// open list has the array the previous generation left it. The mallocs
	// are counted whole, after a collection, as allocs.Count does: a cycle
	// still running would count its own.
	for _, kind := range []string{"bytes", "name"} {
		h := NewFile(100, 2)
		h.SetImagePool(NewImagePool())
		image := func(fbn block.FBN, tag byte) block.Image {
			if kind == "bytes" {
				return block.Image{Bytes: payload}
			}
			return block.Image{Name: block.NameOf(100, fbn, tag, 64)}
		}
		for gen := range 2 {
			for fbn := block.FBN(0); fbn < n; fbn++ {
				h.WriteImage(fbn, image(fbn, 1))
			}
			h.Freeze()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for fbn := block.FBN(0); fbn < n; fbn++ {
				h.WriteImage(fbn, image(fbn, 2))
			}
			runtime.ReadMemStats(&after)
			preserved := 0
			for b, img := range h.pool.preserved {
				if b.preserved && img.Name == image(b.fbn, 1).Name {
					preserved++
				}
			}
			if preserved != n {
				t.Fatalf("%s, generation %d: %d preserved images after %d overwrites of frozen buffers", kind, gen, preserved, n)
			}
			if got := after.Mallocs - before.Mallocs; gen == 1 && got != 0 {
				t.Errorf("%d overwrites of frozen buffers by %s make %d objects in the second generation, want 0", n, kind, got)
			}
			h.CleanChildAll(t)
		}
	}
}

// TestDirtyListCarriesItsArray: a file written between CPs and not during
// them keeps one open-list array. Each cycle writes one block, freezes,
// cleans it and its L1 at alternating locations on a media stand-in that
// hands the L1's left arrays back (markMedia), and commits (DropClean,
// Trim). A first file warms the pool up; then, after a second file's first
// cycle, which gives it its list array, no cycle of that file allocates.
// When the open list did not take the array the commit left idle, the
// file's second generation grew a second one: one object here, and one for
// each file a warm overload_burst window writes a second time.
func TestDirtyListCarriesItsArray(t *testing.T) {
	p := NewImagePool()
	m := newMarkMedia(p)
	data := pattern(1)[:64]
	cycles := func(f *File) func() {
		gen := 0
		return func() {
			f.WriteBlock(0, data)
			f.Freeze()
			for level := 0; level <= f.Height(); level++ {
				for _, b := range f.FrozenLevel(level) {
					vbn := block.VBN(100*(level+1) + gen%2)
					img, mediaOnly, _, old := f.CleanChild(b, block.VVBN(vbn), vbn)
					m.land(vbn, img.Bytes, mediaOnly)
					if old != block.InvalidVBN {
						m.forget(p, old)
					}
				}
			}
			f.DropClean()
			p.Trim()
			gen++
		}
	}
	warm := cycles(pooled(p, false))
	for range 10 {
		warm()
	}
	p.Release(make([]byte, 16)) // the second file's second L1 array
	f := pooled(p, false)
	if got := allocs.Count(20, cycles(f)); got != 0 {
		t.Errorf("20 write/CP cycles of one block allocate %d objects after the first, want 0", got)
	}
	if cap(f.curr.bufs) == 0 {
		t.Error("the open list holds no array between writes")
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
				_, _, _, oldVBN := f.CleanChild(b, block.VVBN(loc)<<32, newVBN)
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

// TestSparseIndirectMatchesFullBlock drives one L1 through seeded CleanChild
// slot sequences — ascending, descending or random, up to all 256 slots a
// CP — with CPs, re-cleans of a sealed buffer and media releases in between,
// against a reference that keeps a full block and trims it. PtrAt agrees
// with the reference on every slot, every image handed out is the trimmed
// reference byte for byte and in length (the whole block when that is
// longer than sparseMax) and keeps its bytes until the media releases it, the array stays within sparseMax while the trimmed reference
// does, and a CP copies the array at most once per doubling.
func TestSparseIndirectMatchesFullBlock(t *testing.T) {
	const maxCopies = 9 // one copy-on-seal, then 16 B doubled up to a block
	orders := []func(s []int){
		slices.Sort[[]int],
		func(s []int) { slices.Sort(s); slices.Reverse(s) },
		func([]int) {},
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewImagePool()
		mm := newMarkMedia(p)
		f := pooled(p, false)
		ref := block.New()
		type onMedia struct {
			vbn       block.VBN
			img, want []byte
		}
		var media []onMedia // handed out and not yet released, oldest first
		loc := uint64(1000)
		check := func(when string) {
			l1 := f.Buffer(1, 0)
			for i := range block.PtrsPerBlock {
				gvv, gv := PtrAt(l1, i)
				if wvv, wv := block.GetPtr(ref, i); gvv != wvv || gv != wv {
					t.Fatalf("seed %d, %s: entry %d = (%v,%v), reference (%v,%v)", seed, when, i, gvv, gv, wvv, wv)
				}
			}
			if len(block.Trim(ref)) <= sparseMax && len(l1.data) > sparseMax {
				t.Fatalf("seed %d, %s: array of %d bytes for %d trimmed", seed, when, len(l1.data), len(block.Trim(ref)))
			}
			for _, m := range media {
				if !bytes.Equal(m.img, m.want) {
					t.Fatalf("seed %d, %s: an image the media holds changed", seed, when)
				}
			}
		}
		cleanL1 := func(when string) {
			vbn := block.VBN(loc)
			img := cleanTo(mm, f, f.Buffer(1, 0), vbn)
			loc++
			want := block.Trim(ref)
			if len(want) > sparseMax {
				want = ref // a dense image goes out whole
			}
			if len(img) != len(want) || !bytes.Equal(img, want) {
				t.Fatalf("seed %d, %s: handed out %d bytes, want the reference's %d", seed, when, len(img), len(want))
			}
			media = append(media, onMedia{vbn, img, bytes.Clone(img)})
		}
		for cp := range 10 {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 1 + rng.Intn(8)
			case 1:
				n = 1 + rng.Intn(64)
			case 2:
				n = 1 + rng.Intn(block.PtrsPerBlock)
			default:
				n = block.PtrsPerBlock
			}
			slots := rng.Perm(block.PtrsPerBlock)[:n]
			orders[rng.Intn(len(orders))](slots)
			for _, s := range slots {
				f.WriteBlock(block.FBN(s), pattern(byte(s))[:64])
			}
			f.Freeze()
			taken := p.Stats().Taken
			for _, s := range slots {
				f.CleanChild(f.Buffer(0, block.FBN(s)), block.VVBN(loc), block.VBN(loc+1))
				block.PutPtr(ref, s, block.VVBN(loc), block.VBN(loc+1))
				loc += 2
				check("cleaning")
			}
			if copies := p.Stats().Taken - taken; copies > maxCopies {
				t.Fatalf("seed %d, CP %d: %d pointers copied the array %d times, want at most %d", seed, cp, n, copies, maxCopies)
			}
			cleanL1("the CP's clean")
			if rng.Intn(3) == 0 {
				f.DirtyIntoCP(f.Buffer(1, 0))
				cleanL1("a re-clean")
			}
			// The media lets go of some images the buffer has left.
			for i := len(media) - 2; i >= 0; i-- {
				if rng.Intn(2) == 0 {
					mm.forget(p, media[i].vbn)
					media = slices.Delete(media, i, i+1)
				}
			}
			check("releases")
		}
	}
}
