package bcache

import (
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
// becomes the inserted key's, and the LRU order is what it was.
func TestInsertThatEvictsAllocatesNothing(t *testing.T) {
	const n = 64
	c := New(n)
	for i := 0; i < n; i++ {
		c.Insert(k(i))
	}
	// Warm up past the map's first growth: the slots evicted keys leave
	// marked fill its table within the first few thousand evicting inserts,
	// and it grows once (two objects); the next growth is tens of thousands
	// of inserts away.
	i := n
	for range 5000 {
		c.Insert(k(i))
		i++
	}
	if got := allocs.Count(1000, func() { c.Insert(k(i)); i++ }); got != 0 {
		t.Errorf("1000 Inserts that evict allocate %d objects, want 0", got)
	}
	if c.Len() != n || c.Contains(k(i-n-1)) || !c.Contains(k(i-n)) || !c.Contains(k(i-1)) {
		t.Fatalf("after %d inserts: Len %d; want the last %d keys resident", i, c.Len(), n)
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
