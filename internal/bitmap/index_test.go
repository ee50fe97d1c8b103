package bitmap

import (
	"math/rand"
	"testing"

	"wafl/internal/fs"
)

// testIndex builds an active+summary pair with an index over them, using a
// small region size so multi-region behavior is exercised, and builds the
// free-words level at once so every transition maintains both levels.
func testIndex(nbits, regionBits uint64) (*Activemap, *Activemap, *Index) {
	active := New(fs.NewFile(1, 2), nbits)
	summary := New(fs.NewFile(2, 2), nbits)
	x := NewIndex(active, summary, regionBits)
	x.words()
	return active, summary, x
}

// verifyEmpty fails the test if the index disagrees with a full recount.
func verifyEmpty(t *testing.T, x *Index, when string) {
	t.Helper()
	if errs := x.Verify(); len(errs) != 0 {
		t.Fatalf("%s: index inconsistent: %v", when, errs)
	}
}

func TestIndexTracksSetClear(t *testing.T) {
	active, _, x := testIndex(1024, 256)
	if len(x.regionFree) != 4 || x.RegionFree(0) != 256 {
		t.Fatalf("regions=%d free0=%d", len(x.regionFree), x.RegionFree(0))
	}
	active.Set(5)
	active.Set(300)
	if x.RegionFree(0) != 255 || x.RegionFree(1) != 255 {
		t.Fatalf("free0=%d free1=%d", x.RegionFree(0), x.RegionFree(1))
	}
	active.Clear(5)
	if x.RegionFree(0) != 256 {
		t.Fatalf("free0=%d after clear", x.RegionFree(0))
	}
	verifyEmpty(t, x, "after set/clear")
}

func TestIndexMaskedBitsAreNotAllocatable(t *testing.T) {
	active, summary, x := testIndex(1024, 256)
	// Summary-held bit leaves the free pool.
	sm := New(fs.NewFile(3, 2), 1024)
	sm.SetRaw(10)
	sm.SetRaw(700)
	summary.OrFrom(sm.File())
	if x.RegionFree(0) != 255 || x.RegionFree(2) != 255 {
		t.Fatalf("free0=%d free2=%d after fold", x.RegionFree(0), x.RegionFree(2))
	}
	// Setting the active bit while the summary holds it changes nothing:
	// the bit was already unallocatable.
	active.Set(10)
	if x.RegionFree(0) != 255 {
		t.Fatalf("free0=%d after active set of summary-held bit", x.RegionFree(0))
	}
	// Clearing active while summary still holds it: still unallocatable.
	active.Clear(10)
	if x.RegionFree(0) != 255 {
		t.Fatalf("free0=%d after active clear of summary-held bit", x.RegionFree(0))
	}
	// Snapshot reclaim clears the summary bit: now it is free again.
	summary.Clear(10)
	summary.Clear(700)
	if x.RegionFree(0) != 256 || x.RegionFree(2) != 256 {
		t.Fatalf("free0=%d free2=%d after reclaim", x.RegionFree(0), x.RegionFree(2))
	}
	verifyEmpty(t, x, "after fold+reclaim")
}

func TestIndexFindFreeMatchesLegacyScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	active, summary, x := testIndex(8192, 1024)
	for i := 0; i < 5000; i++ {
		bn := uint64(rng.Intn(8192))
		if !active.IsSet(bn) {
			active.Set(bn)
		}
	}
	sm := New(fs.NewFile(3, 2), 8192)
	for i := 0; i < 1000; i++ {
		sm.SetRaw(uint64(rng.Intn(8192)))
	}
	summary.OrFrom(sm.File())
	for _, span := range [][2]uint64{{0, 8192}, {100, 1000}, {67, 69}, {1024, 2048}, {8000, 8192}} {
		got, _ := x.FindFree(nil, span[0], span[1], 1<<20)
		legacy, _ := active.FindFree(nil, span[0], span[1], 1<<20)
		var want []uint64
		for _, bn := range legacy {
			if !summary.IsSet(bn) {
				want = append(want, bn)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("span %v: got %d bits, want %d", span, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("span %v: bit %d: got %d want %d", span, i, got[i], want[i])
			}
		}
	}
	// max is honored.
	got, _ := x.FindFree(nil, 0, 8192, 7)
	if len(got) > 7 {
		t.Fatalf("max ignored: %d bits", len(got))
	}
}

func TestIndexFindFreeSkipsExhaustedWords(t *testing.T) {
	// Fill all but the last word of an 8192-bit space: the indexed scan must
	// not pay for the 127 exhausted words.
	active, _, x := testIndex(8192, 8192)
	for bn := uint64(0); bn < 8128; bn++ {
		active.Set(bn)
	}
	got, words := x.FindFree(nil, 0, 8192, 64)
	if len(got) != 64 || got[0] != 8128 {
		t.Fatalf("got %d bits, first %d", len(got), got[0])
	}
	// 2 free-words bitset words + 1 data word — far below the 128 data words
	// a legacy scan reads.
	if words > 4 {
		t.Fatalf("indexed scan examined %d words", words)
	}
	_, legacyWords := active.FindFree(nil, 0, 8192, 64)
	if legacyWords != 128 {
		t.Fatalf("legacy scan examined %d words", legacyWords)
	}
}

func TestIndexPropertyRandomTransitions(t *testing.T) {
	// Property: after an arbitrary interleaving of active set/clear, summary
	// folds (snapshot create) and summary clears (snapshot reclaim), both
	// index levels equal a full recount.
	const nbits = 4096
	rng := rand.New(rand.NewSource(1234))
	active, summary, x := testIndex(nbits, 512)
	activeState := make(map[uint64]bool)
	summaryState := make(map[uint64]bool)
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // active set/clear toggle
			bn := uint64(rng.Intn(nbits))
			if activeState[bn] {
				active.Clear(bn)
				activeState[bn] = false
			} else {
				active.Set(bn)
				activeState[bn] = true
			}
		case op < 7: // snapshot create: fold a random snapmap into summary
			sm := New(fs.NewFile(9, 2), nbits)
			for i := 0; i < 64; i++ {
				bn := uint64(rng.Intn(nbits))
				if sm.IsSet(bn) {
					continue
				}
				sm.SetRaw(bn)
				summaryState[bn] = true
			}
			summary.OrFrom(sm.File())
		default: // snapshot reclaim: clear some held summary bits
			cleared := 0
			for bn := range summaryState {
				if !summaryState[bn] {
					continue
				}
				summary.Clear(bn)
				summaryState[bn] = false
				if cleared++; cleared == 32 {
					break
				}
			}
		}
	}
	verifyEmpty(t, x, "after random transitions")
	// Spot-check one region against the oracle directly.
	want := active.CountFreeNotIn(summary, 512, 1024)
	if got := x.RegionFree(1); got != int64(want) {
		t.Fatalf("region 1: counter %d != recount %d", got, want)
	}
}

func TestIndexRebuildMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	active, summary, x := testIndex(4096, 1024)
	for i := 0; i < 1500; i++ {
		bn := uint64(rng.Intn(4096))
		if !active.IsSet(bn) {
			active.Set(bn)
		}
	}
	sm := New(fs.NewFile(3, 2), 4096)
	for i := 0; i < 400; i++ {
		sm.SetRaw(uint64(rng.Intn(4096)))
	}
	summary.OrFrom(sm.File())
	before := make([]int64, len(x.regionFree))
	for r := range before {
		before[r] = x.RegionFree(r)
	}
	// Rebuild from map content must reproduce the incrementally maintained
	// state — the mount/Rebind path.
	x.Rebuild()
	for r := range before {
		if x.RegionFree(r) != before[r] {
			t.Fatalf("region %d: rebuild %d != incremental %d", r, x.RegionFree(r), before[r])
		}
	}
	verifyEmpty(t, x, "after rebuild")
}

func TestIndexVerifyCatchesCorruption(t *testing.T) {
	active, _, x := testIndex(2048, 512)
	active.Set(3)
	verifyEmpty(t, x, "baseline")
	x.CorruptRegionCounter(1, -2)
	if errs := x.Verify(); len(errs) == 0 {
		t.Fatal("Verify missed corrupted region counter")
	}
	x.CorruptRegionCounter(1, 2) // restore
	verifyEmpty(t, x, "after restore")
	x.CorruptFreeWord(5)
	if errs := x.Verify(); len(errs) == 0 {
		t.Fatal("Verify missed corrupted free-words bit")
	}
}

// TestIndexBuildsFreeWordsOnFirstFind: an index nobody searches keeps only
// its region counters, and the first FindFree builds the free-words level
// the incremental maintenance would have kept.
func TestIndexBuildsFreeWordsOnFirstFind(t *testing.T) {
	active := New(fs.NewFile(1, 2), 4096)
	x := NewIndex(active, nil, 1024)
	for bn := uint64(0); bn < 1100; bn++ {
		active.Set(bn)
	}
	active.Clear(70)
	if x.freeWords != nil {
		t.Fatal("free-words level built before any FindFree")
	}
	got, words := x.FindFree(nil, 0, 4096, 2)
	if len(got) != 2 || got[0] != 70 || got[1] != 1100 || words > 4 {
		t.Fatalf("first FindFree = %v in %d words", got, words)
	}
	verifyEmpty(t, x, "after first FindFree")
	active.Set(70)
	active.Clear(5)
	if got, _ := x.FindFree(nil, 0, 4096, 2); got[0] != 5 || got[1] != 1100 {
		t.Fatalf("free-words level not maintained after build: %v", got)
	}
	verifyEmpty(t, x, "after maintenance")
}

func TestIndexRegionSizeMustBeWordMultiple(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for region size not a multiple of 64")
		}
	}()
	active := New(fs.NewFile(1, 2), 1024)
	NewIndex(active, nil, 100)
}
