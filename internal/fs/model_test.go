package fs

import (
	"bytes"
	"maps"
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

// TestModelRandomOps drives a user File through random histories of client
// writes (bytes and names), CP freezes, overwrites during a CP, cleans of
// the frozen L0s in FrozenRange-like splits, cleans of the indirects,
// commits (DropClean), reads that hold a block and Release, on trees of
// height 1 to 3 with sparse high FBNs. It checks them against plain map
// reference models: every L0's live image, residency and in-memory state;
// the cleaning order (ascending FBN within each range, every frozen L0 once);
// the image each clean hands out (the one the L0 had when it was frozen,
// preserved past any overwrite); the old address each clean frees (the last
// address a clean gave the block, while the tree holds it); the dirty and
// frozen counts; the indirect buffers resident; and CoWCopies. An image
// pool's Audit checks the side home and the handles after every step.
func TestModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		height := int(seed-1)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		p := NewImagePool()
		f := NewFile(1, height)
		if seed%2 == 0 {
			f.SetImagePool(p) // odd seeds keep their images in the file's own home
		}
		maxFBN := block.FBN(f.MaxBlocks())
		live := map[block.FBN]block.Image{}     // every L0 written since the tree was built
		atFreeze := map[block.FBN]block.Image{} // frozen L0s: the image the CP writes
		dirty := map[block.FBN]bool{}           // open generation
		preserved := map[block.FBN]bool{}       // frozen L0s overwritten since
		cleaned := map[block.FBN]bool{}         // cleaned by the running CP, not committed, not dirty since
		held := map[block.FBN]bool{}
		addr := map[block.FBN]block.VBN{} // the address the last clean gave the block
		indirect := map[pos]bool{}        // resident indirect buffers
		var cow uint64
		loc := uint64(100)
		inCP := false

		image := func(fbn block.FBN) block.Image {
			if rng.Intn(2) == 0 {
				return block.Image{Name: block.NameOf(1, fbn, byte(rng.Intn(256)), 1+rng.Intn(block.Size))}
			}
			b := make([]byte, 1+rng.Intn(64))
			rng.Read(b)
			return block.Image{Bytes: b}
		}
		same := func(a, b block.Image) bool {
			return a.Name == b.Name && (a.Name != 0 || len(a.Bytes) > 0 && len(b.Bytes) > 0 && &a.Bytes[0] == &b.Bytes[0])
		}
		cleanRange := func(step int, lo, hi block.FBN) {
			want := []block.FBN{}
			for fbn := range atFreeze {
				if fbn >= lo && fbn < hi {
					want = append(want, fbn)
				}
			}
			slices.Sort(want)
			var got []block.FBN
			for fbn, _, ok := f.NextFrozen(0, lo, hi); ok; fbn, _, ok = f.NextFrozen(0, fbn+1, hi) {
				got = append(got, fbn)
				vbn := block.VBN(loc)
				img, oldVVBN, oldVBN := f.CleanL0(fbn, block.VVBN(loc), vbn)
				loc++
				wantOld, ok := addr[fbn]
				if !ok {
					wantOld = block.InvalidVBN
				}
				if !same(img, atFreeze[fbn]) || oldVBN != wantOld || (oldVBN == block.InvalidVBN) != (oldVVBN == block.InvalidVVBN) {
					t.Fatalf("seed %d step %d: clean of L0 %d handed out the wrong image or freed %v, want %v", seed, step, fbn, oldVBN, wantOld)
				}
				addr[fbn] = vbn
				if !preserved[fbn] {
					cleaned[fbn] = true
				}
				delete(atFreeze, fbn)
				delete(preserved, fbn)
				indirect[pos{1, fbn >> radixBits}] = true
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: range [%d,%d) cleaned %v, want %v", seed, step, lo, hi, got, want)
			}
		}
		check := func(step int) {
			t.Helper()
			for fbn, want := range live {
				img, ok := f.L0(fbn)
				_, frozen := atFreeze[fbn]
				if inMemory := dirty[fbn] || cleaned[fbn] || frozen; ok != inMemory {
					t.Fatalf("seed %d step %d: L0 %d in memory %v, model says %v", seed, step, fbn, ok, inMemory)
				}
				if ok && !same(img, want) {
					t.Fatalf("seed %d step %d: L0 %d reads another image", seed, step, fbn)
				}
			}
			for i := 0; i < 8; i++ {
				fbn := sparseFBN(rng, height)
				if f.Resident(fbn) != held[fbn] {
					t.Fatalf("seed %d step %d: L0 %d resident %v, model says %v", seed, step, fbn, !held[fbn], held[fbn])
				}
			}
			if f.ResidentBuffers() != len(indirect) {
				t.Fatalf("seed %d step %d: %d resident buffers, model has %d indirects", seed, step, f.ResidentBuffers(), len(indirect))
			}
			for q := range indirect {
				if f.Buffer(q.level, q.idx) == nil {
					t.Fatalf("seed %d step %d: indirect %+v not resident", seed, step, q)
				}
			}
			if f.DirtyCount() != len(dirty) || f.FrozenLevelCount(0) != len(atFreeze) || f.CoWCopies != cow {
				t.Fatalf("seed %d step %d: dirty %d frozen %d CoW %d, model %d / %d / %d", seed, step,
					f.DirtyCount(), f.FrozenLevelCount(0), f.CoWCopies, len(dirty), len(atFreeze), cow)
			}
			if f.pool != nil && len(cleaned) == 0 {
				if err := p.Audit([]*File{f}, func(func(block.VBN, []byte, bool)) {}); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(16); {
			case op < 8: // client write
				fbn := sparseFBN(rng, height)
				_, frozen := atFreeze[fbn]
				_, onMedia := addr[fbn]
				if frozen && !preserved[fbn] || cleaned[fbn] || !dirty[fbn] && !frozen && held[fbn] && onMedia {
					cow++
				}
				preserved[fbn] = frozen
				img := image(fbn)
				f.WriteImage(fbn, img)
				live[fbn], dirty[fbn], held[fbn] = img, true, true
				delete(cleaned, fbn)
			case op < 9: // a read holds a block
				fbn := sparseFBN(rng, height)
				f.Hold(fbn)
				held[fbn] = true
			case op < 10: // freeze (start CP) if none running
				if !inCP && f.DirtyCount() > 0 {
					if n := f.Freeze(); n != len(dirty) {
						t.Fatalf("seed %d step %d: froze %d, model %d", seed, step, n, len(dirty))
					}
					inCP = true
					for fbn := range dirty {
						atFreeze[fbn] = live[fbn]
					}
					clear(dirty)
				}
			case op < 12: // a range job cleans its slice of the frozen L0s
				if inCP {
					lo := block.FBN(rng.Int63n(int64(maxFBN)))
					cleanRange(step, lo, lo+block.FBN(rng.Int63n(int64(maxFBN-lo)+1)))
				}
			case op < 15: // finish the CP and commit
				if inCP {
					cleanRange(step, 0, maxFBN)
					for level := 1; level <= height; level++ {
						for _, b := range frozenAt(f, level) {
							f.CleanChild(b, block.VVBN(loc), block.VBN(loc))
							loc++
							if level < height {
								indirect[pos{level + 1, b.Index() >> radixBits}] = true
							}
						}
					}
					inCP = false
					if f.FrozenCount() != 0 {
						t.Fatalf("seed %d step %d: %d frozen left", seed, step, f.FrozenCount())
					}
					f.DropClean()
					clear(cleaned)
				}
			default: // the tree is dropped
				if !inCP && rng.Intn(4) == 0 {
					f.Release()
					clear(live)
					clear(dirty)
					clear(held)
					clear(addr)
					clear(indirect)
					if f.pool != nil && (p.Stats().Slots.Outstanding() != 0 || p.user.Len() != 0) {
						t.Fatalf("seed %d step %d: Release left %d slot arrays, %d handles", seed, step, p.Stats().Slots.Outstanding(), p.user.Len())
					}
				}
			}
			check(step)
		}
	}
}

// TestModelCPOwnedBuffers drives a metafile's frozen set through seeded
// rounds on trees of height 1 to 3: metafile L0s dirtied into the CP in a
// shuffled order (DirtyIntoCP), some with their ancestors (AppendAncestors,
// as PlanAmapFlush enrolls them), then each level cleaned bottom-up in
// parts: a part of the level, cleaned buffers dirtied into the CP again,
// the rest. After every step the walk of every level (NextFrozen), over the
// whole level and over a random range, must return exactly a sorted
// reference set of the buffers dirty in the CP — each once, in index order
// — and FrozenLevelCount and FrozenCount its sizes. Some rounds dirty an L0
// after level 0 was cleaned, so the root clean leaves the set non-empty and
// the next round walks under the roll-ups it kept; once a root clean empties
// the set, no frozen bit is left anywhere in the index.
func TestModelCPOwnedBuffers(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		height := int(seed-1)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		f := NewMetafile(1, height)
		ref := make([]map[block.FBN]*Buffer, height+1) // by level and index
		for l := range ref {
			ref[l] = map[block.FBN]*Buffer{}
		}
		dirty := func(b *Buffer) {
			f.DirtyIntoCP(b)
			ref[b.Level()][b.Index()] = b
		}
		loc := block.VBN(100)
		clean := func(b *Buffer) {
			f.CleanChild(b, block.InvalidVVBN, loc)
			loc++
			delete(ref[b.Level()], b.Index())
			if b.Level() < height {
				parent := f.Buffer(b.Level()+1, b.Index()>>radixBits)
				ref[parent.Level()][parent.Index()] = parent
			}
		}
		check := func(round int, when string) {
			t.Helper()
			total := 0
			for level, set := range ref {
				span := block.FBN(1) << (radixBits * uint(height-level))
				lo := block.FBN(rng.Int63n(int64(span)))
				hi := lo + block.FBN(rng.Int63n(int64(span-lo)+1))
				for _, r := range [][2]block.FBN{{0, all}, {lo, hi}} {
					var got, want []block.FBN
					for idx, b, ok := f.NextFrozen(level, r[0], r[1]); ok; idx, b, ok = f.NextFrozen(level, idx+1, r[1]) {
						if b != set[idx] {
							t.Fatalf("seed %d round %d, %s: the walk of level %d returned a buffer at index %d the reference does not hold", seed, round, when, level, idx)
						}
						got = append(got, idx)
					}
					for _, idx := range slices.Sorted(maps.Keys(set)) {
						if idx >= r[0] && idx < r[1] {
							want = append(want, idx)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d, %s: the walk of level %d over [%d,%d) returned %v, want %v", seed, round, when, level, r[0], r[1], got, want)
					}
				}
				if f.FrozenLevelCount(level) != len(set) {
					t.Fatalf("seed %d round %d, %s: level %d counts %d frozen, reference %d", seed, round, when, level, f.FrozenLevelCount(level), len(set))
				}
				total += len(set)
			}
			if f.FrozenCount() != total {
				t.Fatalf("seed %d round %d, %s: %d frozen, reference %d", seed, round, when, f.FrozenCount(), total)
			}
		}
		var anc []*Buffer
		for round := range 12 {
			for range 8 + rng.Intn(40) {
				b := f.GetOrCreateL0(sparseFBN(rng, height))
				dirty(b)
				if rng.Intn(4) == 0 {
					anc = f.AppendAncestors(anc[:0], b)
					for _, a := range anc {
						dirty(a)
					}
				}
			}
			check(round, "dirtied")
			for level := 0; level <= height; level++ {
				var cleaned []*Buffer
				for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
					if rng.Intn(2) == 0 {
						clean(b)
						cleaned = append(cleaned, b)
					}
				}
				check(round, "a part of a level cleaned")
				for _, b := range cleaned {
					if rng.Intn(3) == 0 {
						dirty(b)
					}
				}
				check(round, "cleaned buffers dirtied again")
				for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
					clean(b)
				}
				if len(ref[level]) != 0 {
					t.Fatalf("seed %d round %d: the walk of level %d left %d buffers uncleaned", seed, round, level, len(ref[level]))
				}
				check(round, "a level cleaned")
				if level == 0 && rng.Intn(4) == 0 {
					dirty(f.GetOrCreateL0(sparseFBN(rng, height))) // dirtied after its level's walk
				}
			}
			if f.FrozenCount() == 0 {
				f.eachNode(func(n *node, level int, base block.FBN) {
					if !n.frozen.empty() {
						t.Fatalf("seed %d round %d: the root clean emptied the frozen set, and the node at level %d over %d keeps frozen bits %x", seed, round, level, base, n.frozen)
					}
				})
			}
		}
	}
}

// TestMetafileRoundAllocatesNothing: a warm metafile CP round — 4,096 L0s
// dirtied into the CP in a shuffled order, then the walk and the cleans of
// every level — allocates no object: the frozen set is the index's bits,
// with no list to grow or sort. The media stand-in lets go of every image
// at once, so the pool has each array back for the next round.
func TestMetafileRoundAllocatesNothing(t *testing.T) {
	const n = 4096
	p := NewImagePool()
	p.SetMarker(releaseAtOnce{p})
	f := NewMetafile(1, 2)
	f.SetImagePool(p)
	var bufs []*Buffer
	for _, fbn := range rand.New(rand.NewSource(1)).Perm(n) {
		b := f.GetOrCreateL0(block.FBN(fbn))
		b.CPMutableData()[0] = byte(fbn)
		bufs = append(bufs, b)
	}
	loc := block.VBN(1)
	round := func() {
		for _, b := range bufs {
			f.DirtyIntoCP(b)
		}
		for level := 0; level <= f.Height(); level++ {
			for idx, b, ok := f.NextFrozen(level, 0, n); ok; idx, b, ok = f.NextFrozen(level, idx+1, n) {
				img, mediaOnly, _, _ := f.CleanChild(b, block.InvalidVVBN, loc)
				loc++
				if mediaOnly {
					p.Release(img.Bytes[:cap(img.Bytes)])
				}
			}
		}
		if f.FrozenCount() != 0 {
			t.Fatalf("%d frozen left after a round", f.FrozenCount())
		}
	}
	round()
	if got := allocs.Count(5, round); got != 0 {
		t.Errorf("5 metafile CP rounds of %d shuffled L0s allocate %d objects, want 0", n, got)
	}
}

// releaseAtOnce is a media that lets go of each array a buffer leaves to it
// the moment it is marked.
type releaseAtOnce struct{ p *ImagePool }

func (m releaseAtOnce) Mark(_ block.VBN, arr []byte) bool {
	m.p.Release(arr)
	return true
}

// TestRedirtyAfterCleanAppearsOnce: a buffer cleaned and then dirtied into
// the same CP again (the PlanAmapFlush fixed-point pattern) is walked
// exactly once, in FBN order.
func TestRedirtyAfterCleanAppearsOnce(t *testing.T) {
	f := NewMetafile(1, 1)
	a, b := f.GetOrCreateL0(3), f.GetOrCreateL0(9)
	f.DirtyIntoCP(a)
	f.DirtyIntoCP(b)
	f.CleanChild(a, block.InvalidVVBN, 100)
	f.DirtyIntoCP(a)
	f.DirtyIntoCP(a)
	if got := frozenAt(f, 0); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("frozen L0 = %v, want [fbn 3, fbn 9] once each", got)
	}
	if f.FrozenCount() != 3 { // a, b and the root dirtied by the clean
		t.Fatalf("frozen count = %d, want 3", f.FrozenCount())
	}
	f.CleanChild(a, block.InvalidVVBN, 101)
	f.CleanChild(b, block.InvalidVVBN, 102)
	if got := frozenAt(f, 0); len(got) != 0 {
		t.Fatalf("frozen L0 = %v after cleaning both", got)
	}
	f.CleanChildAll(t)
	if f.FrozenCount() != 0 {
		t.Fatalf("%d frozen left", f.FrozenCount())
	}
}

// TestUnfrozenMetafileListsStayBounded: a metafile is only ever dirtied into
// the CP, never Freeze()d, so the clean that takes its frozen count back to
// zero must leave no frozen state behind: no frozen bit in any node, no
// count at any level, round after round.
func TestUnfrozenMetafileListsStayBounded(t *testing.T) {
	f := NewMetafile(1, 2)
	for round := 0; round < 1000; round++ {
		for _, fbn := range []block.FBN{700, 2, 300} {
			f.DirtyIntoCP(f.GetOrCreateL0(fbn))
		}
		f.CleanChildAll(t)
		for l := 0; l <= f.Height(); l++ {
			if n := f.FrozenLevelCount(l); n != 0 {
				t.Fatalf("round %d: level %d counts %d frozen after the root clean", round, l, n)
			}
		}
		f.eachNode(func(n *node, level int, base block.FBN) {
			if !n.frozen.empty() {
				t.Fatalf("round %d: the node at level %d over %d keeps frozen bits %x with nothing frozen", round, level, base, n.frozen)
			}
		})
	}
}

// TestInterleavedRangeIterations is what concurrent JobL0Range cleaner jobs
// do across their Consume points: each walks its range of one file's frozen
// L0s with NextFrozen and cleans them while the other cleans its own, and
// writes that arrived out of FBN order come out in FBN order.
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
	type cursor struct {
		lo, hi block.FBN
		seen   []block.FBN
	}
	lo, hi := &cursor{lo: 0, hi: 250}, &cursor{lo: 250, hi: n + 100}
	step := func(c *cursor, vbn int) bool {
		fbn, _, ok := f.NextFrozen(0, c.lo, c.hi)
		if ok {
			c.seen = append(c.seen, fbn)
			f.CleanL0(fbn, block.VVBN(vbn), block.VBN(vbn))
			c.lo = fbn + 1
		}
		return ok
	}
	for i := 0; ; i++ {
		a, b := step(lo, 1000+i), step(hi, 5000+i)
		if !a && !b {
			break
		}
	}
	want := make([]block.FBN, n)
	for i := range want {
		want[i] = block.FBN(i)
	}
	if !slices.Equal(lo.seen, want[:250]) || !slices.Equal(hi.seen, want[250:]) {
		t.Fatalf("range jobs saw %d and %d L0s, want FBNs [0,250) and [250,%d) in order", len(lo.seen), len(hi.seen), n)
	}
	if f.FrozenLevelCount(0) != 0 {
		t.Fatal("frozen L0s left after both ranges")
	}
	// The finalize job: levels 1 and up, dirtied out of order by the two.
	if l1 := frozenAt(f, 1); len(l1) != 3 || l1[0].FBN() != 0 || l1[2].FBN() != 512 {
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
	slots = len(n.kids) + len(n.leaves) + len(n.words)
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
	if _, ok := f.L0(1 << 31); ok || f.Buffer(4, 0) != nil || f.ReadBlock(1<<32-1) != nil {
		t.Fatal("lookups in an empty index must miss")
	}
	if nodes, slots := indexFootprint(&f.root); nodes != 0 || slots != 0 {
		t.Fatal("a lookup miss must not grow the index")
	}

	f.WriteBlock(1<<31, []byte{1})
	nodes, slots := indexFootprint(&f.root)
	if nodes > f.Height() || slots > f.Height()*block.PtrsPerBlock || f.ResidentBuffers() != 0 {
		t.Fatalf("touching fbn 1<<31 left %d nodes, %d slots, %d buffers; want O(height) and no buffer", nodes, slots, f.ResidentBuffers())
	}
	if !f.Resident(1<<31) || f.Resident(1<<31-1) || f.Resident(1<<31+1) {
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

// TestDataPathAllocations pins the costs the slot-and-trie layout exists
// for: none of these may touch the heap.
func TestDataPathAllocations(t *testing.T) {
	const n = 4096
	payload := bytes.Repeat([]byte{7}, 64)

	// Freeze: a word of bits at a time down the dirty nodes. allocs.Count
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
		t.Errorf("%d Freezes of %d dirty L0s allocate %d objects, want 0", runs, n, got)
	}
	// A second generation, and walking its frozen L0s in ranges.
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
	if got := allocs.Count(10, func() {
		for fbn, _, ok := f.NextFrozen(0, 100, 2000); ok; fbn, _, ok = f.NextFrozen(0, fbn+1, 2000) {
		}
	}); got != 0 {
		t.Errorf("10 walks of a frozen range allocate %d objects, want 0", got)
	}

	// WriteBlock to a dirty L0: its word takes the new array in its handle.
	g := NewFile(99, 2)
	for fbn := block.FBN(0); fbn < n; fbn++ {
		g.WriteBlock(fbn, payload)
	}
	i := block.FBN(0)
	if got := allocs.Count(1000, func() { g.WriteBlock(i%n, payload); i += 389 }); got != 0 {
		t.Errorf("1000 WriteBlocks to dirty L0s allocate %d objects, want 0", got)
	}
	if got := allocs.Count(1000, func() {
		if _, ok := g.L0(i % n); !ok || g.Resident(n+i%n) || g.Buffer(1, 200) != nil || g.Resident(1<<20) {
			t.Fatal("wrong residency")
		}
		i += 389
	}); got != 0 {
		t.Errorf("1000 slot hits and misses allocate %d objects, want 0", got)
	}

	// An image written over a frozen L0, as bytes or as a name: the old
	// image's word waits for the CP in the image pool's side home, which the
	// previous CP's overwrites sized, so no overwrite allocates in the
	// second generation. The mallocs are counted whole, after a collection,
	// at GOMAXPROCS 1, as allocs.Count does: a cycle still running would
	// count its own, and at GOMAXPROCS 2 the runtime's own goroutines made
	// 1 or 5 objects during the overwrites about one run in a hundred.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
			for fbn := block.FBN(0); fbn < n; fbn++ {
				if img := cpImage(h, fbn); img.Name == image(fbn, 1).Name && len(img.Bytes) == len(image(fbn, 1).Bytes) {
					preserved++
				}
			}
			if preserved != n || len(h.pool.user.preserved) != n {
				t.Fatalf("%s, generation %d: %d preserved images after %d overwrites of frozen L0s", kind, gen, preserved, n)
			}
			if got := after.Mallocs - before.Mallocs; gen == 1 && got != 0 {
				t.Errorf("%d overwrites of frozen L0s by %s make %d objects in the second generation, want 0", n, kind, got)
			}
			h.CleanChildAll(t)
			h.DropClean()
		}
	}
}

// TestOneSlotArrayPerCycle: a file written between CPs and not during them
// turns over the same state every CP — its L1's slot array, its byte-image
// handle, its L1's pointer array. Each cycle writes one block, freezes,
// cleans it and its L1 at alternating locations on a media stand-in that
// hands the L1's left arrays back (markMedia), and commits (DropClean,
// Trim). A first file warms the pool up; then, after a second file's first
// cycle, no cycle of that file allocates.
func TestOneSlotArrayPerCycle(t *testing.T) {
	p := NewImagePool()
	m := newMarkMedia(p)
	data := pattern(1)[:64]
	cycles := func(f *File) func() {
		gen := 0
		return func() {
			f.WriteBlock(0, data)
			f.Freeze()
			vbn := block.VBN(100 + gen%2)
			img, _, old := f.CleanL0(0, block.VVBN(vbn), vbn)
			m.land(vbn, img.Bytes, false)
			if old != block.InvalidVBN {
				m.forget(p, old)
			}
			for level := 1; level <= f.Height(); level++ {
				for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
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
	if f.root.words != nil || p.Stats().Slots.Outstanding() != 0 {
		t.Error("the committed file still holds its slot array")
	}
}

// TestCleanLocationsNeverRepeatWithinCycle checks the allocator-facing
// contract: across a freeze/clean cycle each block gets exactly one new
// location and reports its previous one exactly once. Its VVBNs, apart from
// its VBNs, stay below block.AddrLimit, as a pointer's 32 bits need.
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
		assign := func() block.VBN {
			newVBN := block.VBN(loc)
			loc++
			if seen[newVBN] {
				t.Fatal("location assigned twice")
			}
			seen[newVBN] = true
			return newVBN
		}
		for _, fbn := range frozenL0s(f) {
			newVBN := assign()
			_, _, oldVBN := f.CleanL0(fbn, block.VVBN(loc)<<16, newVBN)
			if want, ok := prev[fbn]; ok && oldVBN != want {
				t.Fatalf("round %d fbn %d: freed %v, expected %v", round, fbn, oldVBN, want)
			}
			prev[fbn] = newVBN
		}
		for level := 1; level <= f.Height(); level++ {
			for _, b := range frozenAt(f, level) {
				f.CleanChild(b, block.VVBN(loc)<<16, assign())
			}
		}
	}
}

// TestSparseIndirectMatchesFullBlock drives one L1 through seeded CleanChild
// slot sequences — ascending, descending or random, up to all 256 slots a
// CP — with CPs, re-cleans of a sealed buffer and media releases in between,
// against a reference that keeps a full block and trims it. PtrAt agrees
// with the reference on every slot, every image handed out is the trimmed
// reference byte for byte and in length and keeps its bytes until the media
// releases it, the array never grows past a full indirect's half block, and
// a CP copies the array at most once per doubling.
func TestSparseIndirectMatchesFullBlock(t *testing.T) {
	const maxCopies = 8 // one copy-on-seal, then 16 B doubled up to half a block
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
			if len(l1.data) > block.PtrsPerBlock*block.PtrSize {
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
				f.CleanL0(block.FBN(s), block.VVBN(loc), block.VBN(loc+1))
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
