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
// All operations are O(1) (map plus intrusive doubly-linked LRU list) and
// deterministic: the map is only ever probed by key, never iterated —
// eviction order comes from the list alone.
package bcache

import "wafl/internal/block"

// Key names one cached block: member-local volume, member-local inode, and
// file block number.
type Key struct {
	Vol int
	Ino uint64
	FBN block.FBN
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
	m        map[Key]*entry
	head     *entry // most recently used
	tail     *entry // least recently used

	hits, misses, evictions uint64
}

// New returns a cache holding at most capacity blocks. Capacity must be
// positive (a zero-capacity cache is expressed by not constructing one).
func New(capacity int) *Cache {
	if capacity < 1 {
		panic("bcache: capacity must be positive")
	}
	return &Cache{capacity: capacity, m: make(map[Key]*entry, capacity)}
}

// Capacity returns the configured block capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return len(c.m) }

// Stats returns the counter snapshot.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Resident: len(c.m)}
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
	if e, ok := c.m[k]; ok {
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
	_, ok := c.m[k]
	return ok
}

// Insert makes k resident (refreshing it if already resident), evicting the
// least recently used block if the cache is full; the evicted entry becomes
// k's.
func (c *Cache) Insert(k Key) {
	if e, ok := c.m[k]; ok {
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	var e *entry
	if len(c.m) >= c.capacity {
		e = c.tail
		c.unlink(e)
		delete(c.m, e.key)
		c.evictions++
		e.key = k
	} else {
		e = &entry{key: k}
	}
	c.m[k] = e
	c.pushFront(e)
}

// InvalidateFile evicts every resident block of (vol, ino) — the delete
// path's coherence hook. Walks the LRU list (never the map), so eviction
// order and the surviving list are deterministic. Returns blocks evicted.
func (c *Cache) InvalidateFile(vol int, ino uint64) int {
	n := 0
	for e := c.head; e != nil; {
		next := e.next
		if e.key.Vol == vol && e.key.Ino == ino {
			c.unlink(e)
			delete(c.m, e.key)
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
			delete(c.m, e.key)
			n++
		}
		e = next
	}
	return n
}
