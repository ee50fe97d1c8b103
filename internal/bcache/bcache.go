// Package bcache is the sized buffer cache on the client read path: an LRU
// residency set over (volume, inode, file block) keys, capacity-bounded in
// 4 KiB blocks. With one configured it is its member's only residency set.
//
// The cache tracks residency, not bytes: a block's content is its slot's
// image word while it is dirty or in a consistency point, and its media
// image once the CP that wrote it commits (DESIGN §15). A key present in the cache means
// the block is memory-resident and a client read of it pays no media I/O; a
// key absent means the read is charged a timed drive read and then inserted.
// Writes insert their blocks too — a freshly written block is the hottest
// thing in a real buffer cache — so the working-set-vs-capacity regimes of
// CAWL fall out naturally: while the working set fits, everything hits after
// first touch; once it exceeds capacity, LRU eviction makes re-reads pay
// media latency again.
//
// All operations are O(1) (an open-addressed key table plus an intrusive
// doubly-linked LRU list) and deterministic: the table is only ever probed
// by key, never iterated — eviction order comes from the list alone. It
// probes linearly and a delete re-inserts the rest of its probe chain, so
// it leaves no mark behind. The entries are one array made in New, at the
// capacity, and the table and the list hold indices into it; the table is
// made there too, at twice the capacity, so neither filling the cache nor
// a full cache that evicts on every insert allocates anything.
package bcache

import (
	"math/bits"

	"wafl/internal/block"
)

// Key names one cached block: member-local volume, member-local inode, and
// file block number.
type Key struct {
	Vol int
	Ino uint64
	FBN block.FBN
}

// hash mixes a key's fields into a table index (before masking).
func (k Key) hash() int {
	h := uint64(k.Vol)*0x9E3779B97F4A7C15 ^ k.Ino*0xC2B2AE3D27D4EB4F ^ uint64(k.FBN)*0x165667B19E3779F9
	return int(h ^ h>>29)
}

// entry is one resident block: its key and its neighbours in the LRU list,
// as indices into the entries array (none: -1).
type entry struct {
	key        Key
	prev, next int32
}

// none is the index of no entry.
const none = -1

// Stats is a snapshot of the cache counters (the `stat` tag is read by
// wafl.Stats).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Resident  int `stat:"gauge"` // blocks currently resident
}

// Cache is an LRU block-residency cache. Not safe for host-level
// concurrency; the simulation serializes all access.
type Cache struct {
	// entries holds every entry there can be, made once; the first made are
	// in use, and free chains the ones let go since through their next.
	entries []entry
	made    int
	free    int32
	// slots is the key table, one entry index plus one a slot, 0 where
	// empty: a power of two at least twice the capacity, made once.
	slots []int32
	n     int   // resident blocks
	head  int32 // most recently used
	tail  int32 // least recently used

	hits, misses, evictions uint64
}

// New returns a cache holding at most capacity blocks. Capacity must be
// positive (a zero-capacity cache is expressed by not constructing one).
func New(capacity int) *Cache {
	if capacity < 1 {
		panic("bcache: capacity must be positive")
	}
	n := 1 << bits.Len(uint(2*capacity-1))
	return &Cache{entries: make([]entry, capacity), free: none, slots: make([]int32, n), head: none, tail: none}
}

// at returns entry i.
func (c *Cache) at(i int32) *entry { return &c.entries[i] }

// probe returns the slot that holds k, or the empty slot its chain ends at.
func (c *Cache) probe(k Key) int {
	mask := len(c.slots) - 1
	i := k.hash() & mask
	for c.slots[i] != 0 && c.entries[c.slots[i]-1].key != k {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the index of k's entry, or none.
func (c *Cache) lookup(k Key) int32 { return c.slots[c.probe(k)] - 1 }

// remove deletes resident key k from the table and re-inserts the rest of
// its probe chain, so no chain is broken and no slot is left marked.
func (c *Cache) remove(k Key) {
	mask := len(c.slots) - 1
	i := c.probe(k)
	c.slots[i] = 0
	for j := (i + 1) & mask; c.slots[j] != 0; j = (j + 1) & mask {
		e := c.slots[j]
		c.slots[j] = 0
		c.slots[c.probe(c.entries[e-1].key)] = e
	}
	c.n--
}

// release unlinks entry i, drops its key and chains it on the free list.
func (c *Cache) release(i int32) {
	c.unlink(i)
	c.remove(c.at(i).key)
	c.at(i).next, c.free = c.free, i
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return c.n }

// Stats returns the counter snapshot.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Resident: c.n}
}

// unlink removes entry i from the LRU list.
func (c *Cache) unlink(i int32) {
	e := c.at(i)
	if e.prev != none {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = none, none
}

// pushFront makes entry i the most recently used.
func (c *Cache) pushFront(i int32) {
	e := c.at(i)
	e.prev, e.next = none, c.head
	if c.head != none {
		c.at(c.head).prev = i
	}
	c.head = i
	if c.tail == none {
		c.tail = i
	}
}

// refresh makes resident entry i the most recently used.
func (c *Cache) refresh(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// Touch looks k up, counting a hit (and refreshing its recency) or a miss.
// A miss does not insert — the caller performs the media read first and
// then calls Insert, so a read that crashes mid-I/O never leaves a phantom
// resident block.
func (c *Cache) Touch(k Key) bool {
	if i := c.lookup(k); i != none {
		c.hits++
		c.refresh(i)
		return true
	}
	c.misses++
	return false
}

// Contains reports residency without perturbing recency or counters.
func (c *Cache) Contains(k Key) bool { return c.lookup(k) != none }

// Insert makes k resident (refreshing it if already resident), evicting the
// least recently used block if the cache is full; the evicted entry becomes
// k's.
func (c *Cache) Insert(k Key) {
	if i := c.lookup(k); i != none {
		c.refresh(i)
		return
	}
	var i int32
	switch {
	case c.n >= len(c.entries):
		i = c.tail
		c.unlink(i)
		c.remove(c.at(i).key)
		c.evictions++
	case c.free != none:
		i, c.free = c.free, c.at(c.free).next
	default:
		i = int32(c.made)
		c.made++
	}
	c.at(i).key = k
	c.slots[c.probe(k)] = i + 1
	c.n++
	c.pushFront(i)
}

// InvalidateFile evicts every resident block of (vol, ino) — the delete
// path's coherence hook. Walks the LRU list (never the table), so eviction
// order and the surviving list are deterministic. Returns blocks evicted.
func (c *Cache) InvalidateFile(vol int, ino uint64) int {
	n := 0
	for i := c.head; i != none; {
		next := c.at(i).next
		if k := c.at(i).key; k.Vol == vol && k.Ino == ino {
			c.release(i)
			n++
		}
		i = next
	}
	return n
}

// InvalidateVol evicts every resident block of vol — the SnapRestore
// coherence hook: the restored image supersedes whatever of the discarded
// present was resident. Returns blocks evicted.
func (c *Cache) InvalidateVol(vol int) int {
	n := 0
	for i := c.head; i != none; {
		next := c.at(i).next
		if c.at(i).key.Vol == vol {
			c.release(i)
			n++
		}
		i = next
	}
	return n
}
