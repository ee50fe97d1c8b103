package bcache

import (
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"testing"

	"wafl/internal/allocs"
	"wafl/internal/block"
)

func k(fbn int) Key { return Key{Vol: 0, Ino: 1, FBN: block.FBN(fbn)} }

func TestLRUEviction(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Insert(k(i))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Touch 0 so 1 becomes the LRU, then insert a fourth block.
	if !c.Touch(k(0)) {
		t.Fatal("resident block missed")
	}
	c.Insert(k(3))
	if c.Contains(k(1)) {
		t.Error("LRU block 1 not evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if !c.Contains(k(i)) {
			t.Errorf("block %d wrongly evicted", i)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 eviction, 1 hit", st)
	}
}

func TestTouchMissDoesNotInsert(t *testing.T) {
	c := New(2)
	if c.Touch(k(7)) {
		t.Fatal("miss reported as hit")
	}
	if c.Len() != 0 {
		t.Fatal("miss inserted an entry")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestRemoveAndReinsert(t *testing.T) {
	c := New(2)
	other := Key{Vol: 0, Ino: 2, FBN: 1}
	c.Insert(other)
	c.Insert(k(2))
	if n := c.InvalidateFile(0, 2); n != 1 || c.Contains(other) || c.Len() != 1 {
		t.Fatalf("InvalidateFile evicted %d, Len = %d", n, c.Len())
	}
	c.Insert(k(3))
	c.Insert(k(4)) // evicts 2 (LRU), not 3
	if c.Contains(k(2)) || !c.Contains(k(3)) || !c.Contains(k(4)) {
		t.Fatalf("unexpected residency after churn")
	}
	// Re-inserting a resident key must refresh recency, not grow the cache.
	c.Insert(k(3))
	if c.Len() != 2 {
		t.Fatalf("Len = %d after duplicate insert, want 2", c.Len())
	}
	c.Insert(k(5)) // now 4 is LRU
	if c.Contains(k(4)) || !c.Contains(k(3)) {
		t.Fatal("duplicate insert did not refresh recency")
	}
}

// TestInsertThatEvictsAllocatesNothing: in a full cache the evicted entry
// becomes the inserted key's, the key table neither grows nor rebuilds — a
// delete leaves no marked slot behind — and the LRU order is what it was.
// Over 50,000 evicting inserts of random keys, in each of five seeds, the
// cache allocates nothing once it has filled. A Go map lost its evicted
// keys' slots to deletion marks and grew into a new table every few
// thousand inserts.
func TestInsertThatEvictsAllocatesNothing(t *testing.T) {
	const n, inserts = 64, 50_000
	for seed := range uint64(5) {
		rng := rand.New(rand.NewPCG(seed, 1))
		c := New(n)
		var last [n]Key // the n most recent keys, by insert count mod n
		i := 0
		insert := func() {
			key := Key{Vol: rng.IntN(4), Ino: rng.Uint64(), FBN: block.FBN(rng.Uint64())}
			c.Insert(key)
			last[i%n] = key
			i++
		}
		for range n {
			insert()
		}
		// The runtime's background scavenger allocates now and then for its
		// own timer while it has memory to return, which a run this long,
		// under the race detector above all, may count: return it first.
		debug.FreeOSMemory()
		if got := allocs.Count(inserts, insert); got != 0 {
			t.Errorf("seed %d: %d Inserts that evict allocate %d objects, want 0", seed, inserts, got)
		}
		if want := uint64(inserts + 1); c.Len() != n || c.Stats().Evictions != want {
			t.Fatalf("seed %d: Len %d, %d evictions; want %d and %d", seed, c.Len(), c.Stats().Evictions, n, want)
		}
		for j := range n {
			if !c.Contains(last[(i+j)%n]) {
				t.Fatalf("seed %d: key inserted %d ago is not resident", seed, n-j)
			}
		}
		// The least recently used goes first: the oldest resident key.
		c.Insert(k(-1))
		if c.Contains(last[i%n]) || !c.Contains(last[(i+1)%n]) {
			t.Fatalf("seed %d: the insert did not evict the least recently used key alone", seed)
		}
	}
}

// TestFillAllocatesNothing: the entries are one array made in New, so
// filling a new cache to its capacity and then evicting allocates nothing —
// in a cold overload_burst window each first insert built its entry, 18.5 %
// of the window's heap objects. Entries let go by an invalidation are taken
// again before the array's unused ones.
func TestFillAllocatesNothing(t *testing.T) {
	const n = 512
	c := New(n)
	i := 0
	insert := func() {
		c.Insert(Key{Vol: 1, Ino: uint64(i % 3), FBN: block.FBN(i)})
		i++
	}
	if got := allocs.Count(2*n, insert); got != 0 {
		t.Errorf("filling a cache of %d and evicting %d allocate %d objects, want 0", n, n, got)
	}
	if c.Len() != n || c.Stats().Evictions != n+1 {
		t.Fatalf("Len %d, %d evictions; want %d and %d", c.Len(), c.Stats().Evictions, n, n+1)
	}
	dropped := c.InvalidateFile(1, 0)
	for range dropped {
		insert()
	}
	if c.Len() != n || c.made != n {
		t.Fatalf("after refilling %d invalidated entries: Len %d, %d entries made; want %d and %d", dropped, c.Len(), c.made, n, n)
	}
}

// TestMatchesReferenceLRU drives the cache and a reference LRU (a slice in
// recency order) with the same seeded Inserts, Touches and invalidations
// over a small key space, so probe chains collide, wrap and shift back, and
// compares residency, order and counters after every operation.
func TestMatchesReferenceLRU(t *testing.T) {
	for seed := range uint64(8) {
		rng := rand.New(rand.NewPCG(seed, 2))
		capacity := 1 + rng.IntN(40)
		c := New(capacity)
		var ref []Key // most recent first
		var hits, misses, evictions uint64
		at := func(key Key) int { return slices.Index(ref, key) }
		for step := range 4000 {
			key := Key{Vol: rng.IntN(3), Ino: uint64(rng.IntN(4)), FBN: block.FBN(rng.IntN(50))}
			switch op := rng.IntN(20); {
			case op < 10:
				c.Insert(key)
				if i := at(key); i >= 0 {
					ref = slices.Delete(ref, i, i+1)
				} else if len(ref) == capacity {
					ref = ref[:len(ref)-1]
					evictions++
				}
				ref = slices.Insert(ref, 0, key)
			case op < 18:
				i := at(key)
				if got := c.Touch(key); got != (i >= 0) {
					t.Fatalf("seed %d step %d: Touch(%v) = %v", seed, step, key, got)
				}
				if i >= 0 {
					hits++
					ref = slices.Insert(slices.Delete(ref, i, i+1), 0, key)
				} else {
					misses++
				}
			case op < 19:
				n := c.InvalidateFile(key.Vol, key.Ino)
				before := len(ref)
				ref = slices.DeleteFunc(ref, func(r Key) bool { return r.Vol == key.Vol && r.Ino == key.Ino })
				if n != before-len(ref) {
					t.Fatalf("seed %d step %d: InvalidateFile evicted %d, want %d", seed, step, n, before-len(ref))
				}
			default:
				n := c.InvalidateVol(key.Vol)
				before := len(ref)
				ref = slices.DeleteFunc(ref, func(r Key) bool { return r.Vol == key.Vol })
				if n != before-len(ref) {
					t.Fatalf("seed %d step %d: InvalidateVol evicted %d, want %d", seed, step, n, before-len(ref))
				}
			}
			var order []Key
			for i := c.head; i != none; i = c.at(i).next {
				order = append(order, c.at(i).key)
			}
			if !slices.Equal(order, ref) || c.Len() != len(ref) {
				t.Fatalf("seed %d step %d: LRU order %v, want %v", seed, step, order, ref)
			}
			for vol := range 3 {
				for ino := range uint64(4) {
					for fbn := range block.FBN(50) {
						k := Key{Vol: vol, Ino: ino, FBN: fbn}
						if c.Contains(k) != (at(k) >= 0) {
							t.Fatalf("seed %d step %d: Contains(%v) = %v", seed, step, k, !(at(k) >= 0))
						}
					}
				}
			}
			if st := c.Stats(); st.Hits != hits || st.Misses != misses || st.Evictions != evictions || st.Resident != len(ref) {
				t.Fatalf("seed %d step %d: stats %+v, want %d hits, %d misses, %d evictions", seed, step, st, hits, misses, evictions)
			}
		}
	}
}

func TestKeysDistinguishFiles(t *testing.T) {
	c := New(4)
	c.Insert(Key{Vol: 0, Ino: 1, FBN: 5})
	if c.Touch(Key{Vol: 1, Ino: 1, FBN: 5}) || c.Touch(Key{Vol: 0, Ino: 2, FBN: 5}) {
		t.Fatal("cross-file key collision")
	}
	if !c.Touch(Key{Vol: 0, Ino: 1, FBN: 5}) {
		t.Fatal("exact key missed")
	}
}
