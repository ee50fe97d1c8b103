// Package bcache is the sized buffer cache on the client read path: an LRU
// residency set over (volume, inode, file block) keys, capacity-bounded in
// 4 KiB blocks. With one configured it is its member's only residency set.
//
// The cache tracks residency, not bytes: a block's content is its buffer
// while it is dirty or in a consistency point, and its media image once the
// CP that wrote it commits (DESIGN §15). A key present in the cache means
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
// it leaves no mark behind: the table is made once, at twice the capacity,
// and a full cache that evicts on every insert allocates nothing.
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

type entry struct {
	key        Key
	prev, next *entry
}

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
	capacity int
	// slots is the key table, nil where empty: a power of two at least twice
	// the capacity, made once.
	slots []*entry
	n     int    // resident blocks
	head  *entry // most recently used
	tail  *entry // least recently used

	hits, misses, evictions uint64
}

// New returns a cache holding at most capacity blocks. Capacity must be
// positive (a zero-capacity cache is expressed by not constructing one).
func New(capacity int) *Cache {
	if capacity < 1 {
		panic("bcache: capacity must be positive")
	}
	n := 1 << bits.Len(uint(2*capacity-1))
	return &Cache{capacity: capacity, slots: make([]*entry, n)}
}

// probe returns the slot that holds k, or the empty slot its chain ends at.
func (c *Cache) probe(k Key) int {
	mask := len(c.slots) - 1
	i := k.hash() & mask
	for c.slots[i] != nil && c.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// remove deletes resident key k from the table and re-inserts the rest of
// its probe chain, so no chain is broken and no slot is left marked.
func (c *Cache) remove(k Key) {
	mask := len(c.slots) - 1
	i := c.probe(k)
	c.slots[i] = nil
	for j := (i + 1) & mask; c.slots[j] != nil; j = (j + 1) & mask {
		e := c.slots[j]
		c.slots[j] = nil
		c.slots[c.probe(e.key)] = e
	}
	c.n--
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return c.n }

// Stats returns the counter snapshot.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Resident: c.n}
}

// unlink removes e from the LRU list.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *Cache) pushFront(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Touch looks k up, counting a hit (and refreshing its recency) or a miss.
// A miss does not insert — the caller performs the media read first and
// then calls Insert, so a read that crashes mid-I/O never leaves a phantom
// resident block.
func (c *Cache) Touch(k Key) bool {
	if e := c.slots[c.probe(k)]; e != nil {
		c.hits++
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return true
	}
	c.misses++
	return false
}

// Contains reports residency without perturbing recency or counters.
func (c *Cache) Contains(k Key) bool {
	return c.slots[c.probe(k)] != nil
}

// Insert makes k resident (refreshing it if already resident), evicting the
// least recently used block if the cache is full; the evicted entry becomes
// k's.
func (c *Cache) Insert(k Key) {
	if e := c.slots[c.probe(k)]; e != nil {
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	var e *entry
	if c.n >= c.capacity {
		e = c.tail
		c.unlink(e)
		c.remove(e.key)
		c.evictions++
		e.key = k
	} else {
		e = &entry{key: k}
	}
	c.slots[c.probe(k)] = e
	c.n++
	c.pushFront(e)
}

// InvalidateFile evicts every resident block of (vol, ino) — the delete
// path's coherence hook. Walks the LRU list (never the table), so eviction
// order and the surviving list are deterministic. Returns blocks evicted.
func (c *Cache) InvalidateFile(vol int, ino uint64) int {
	n := 0
	for e := c.head; e != nil; {
		next := e.next
		if e.key.Vol == vol && e.key.Ino == ino {
			c.unlink(e)
			c.remove(e.key)
			n++
		}
		e = next
	}
	return n
}

// InvalidateVol evicts every resident block of vol — the SnapRestore
// coherence hook: the restored image supersedes whatever of the discarded
// present was resident. Returns blocks evicted.
func (c *Cache) InvalidateVol(vol int) int {
	n := 0
	for e := c.head; e != nil; {
		next := e.next
		if e.key.Vol == vol {
			c.unlink(e)
			c.remove(e.key)
			n++
		}
		e = next
	}
	return n
}
