package wafl

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// residencyKey names one user block of volume 0.
type residencyKey struct {
	ino uint64
	fbn FBN
}

// residencyShadow is the residency rule as it stood when every block a tree
// had written or read kept its buffer: a block is resident once written or
// read, until its file is deleted or restored or the member crashes. With a
// sized cache it is that cache's LRU instead, over the same events. It is a
// model kept by the test, not a switch in the code.
type residencyShadow struct {
	capacity int            // 0: unbounded
	lru      []residencyKey // most recent last
}

func (s *residencyShadow) has(k residencyKey) bool { return slices.Contains(s.lru, k) }

// touch is a client read: true on a hit, which refreshes the block; a miss
// makes it resident after its media read.
func (s *residencyShadow) touch(k residencyKey) bool {
	hit := s.has(k)
	s.insert(k)
	return hit
}

func (s *residencyShadow) insert(k residencyKey) {
	if i := slices.Index(s.lru, k); i >= 0 {
		s.lru = slices.Delete(s.lru, i, i+1)
	} else if s.capacity > 0 && len(s.lru) == s.capacity {
		s.lru = s.lru[1:]
	}
	s.lru = append(s.lru, k)
}

func (s *residencyShadow) dropFile(ino uint64) {
	s.lru = slices.DeleteFunc(s.lru, func(k residencyKey) bool { return k.ino == ino })
}

// residencyImage is what the file system holds at one instant: the files
// and the tag of the last write of each written block.
type residencyImage struct {
	files   map[uint64]bool
	content map[residencyKey]byte
}

func (im residencyImage) clone() residencyImage {
	return residencyImage{files: maps.Clone(im.files), content: maps.Clone(im.content)}
}

// TestResidencyMatchesKeepEverything runs seeded histories on one member —
// writes, reads, overwrites, CPs, snapshot creates and restores, deletes and
// crashes with recovery — with no buffer cache and with a 64-block one. A
// user L0 buffer lives only while its block is dirty or in a CP, and the
// member's residency set alone says what a client read pays. Every read is
// checked against the shadow of the keep-everything rule: whether it paid a
// timed drive read, and (through VerifyRead, which must not make the block
// resident) the bytes it returns.
func TestResidencyMatchesKeepEverything(t *testing.T) {
	for _, capacity := range []int{0, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("bcache%d/seed%d", capacity, seed), func(t *testing.T) {
				residencyHistory(t, capacity, seed)
			})
		}
	}
}

func residencyHistory(t *testing.T, capacity int, seed int64) {
	const fileBlocks = 96
	cfg := smallConfig()
	cfg.Seed = seed
	cfg.BCacheBlocks = capacity
	cfg.PayloadBytes = 512
	cfg.NVRAMHalfBytes = 64 << 20 // no CP but the ones the history asks for
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sys.Shutdown() }()
	rng := rand.New(rand.NewSource(seed))
	cur := residencyImage{files: map[uint64]bool{}, content: map[residencyKey]byte{}}
	for range 3 {
		cur.files[sys.CreateFileDirect(0, fileBlocks)] = true
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	shadow := &residencyShadow{capacity: capacity}
	onMedia := map[residencyKey]bool{} // committed at some CP: a read of it that misses pays
	logged := []func(){}               // shadow effects NVRAM replay repeats after a crash
	snaps := map[uint64]residencyImage{}

	// do runs one client op to completion, then lets any CP it started
	// finish, so the next op's drive reads are its own.
	do := func(step int, what string, op func(c *ClientCtx)) {
		t.Helper()
		done := false
		sys.ClientThread("op", func(c *ClientCtx) {
			op(c)
			done = true
		})
		for i := 0; !done || sys.m0().engine.Running(); i++ {
			if i == 10000 {
				t.Fatalf("step %d: %s did not finish", step, what)
			}
			sys.Run(100 * Microsecond)
		}
	}
	committed := func() {
		for k := range cur.content {
			onMedia[k] = true
		}
		logged = logged[:0]
	}
	pick := func() uint64 {
		inos := slices.Sorted(maps.Keys(cur.files))
		return inos[rng.Intn(len(inos))]
	}

	var reads, paid, crashes, restores int
	for step := 0; step < 300; step++ {
		switch p := rng.Intn(100); {
		case p < 35: // write 1-3 blocks
			ino, n := pick(), 1+rng.Intn(3)
			fbn, tag := FBN(rng.Intn(fileBlocks-n+1)), byte(1+rng.Intn(250))
			do(step, "write", func(c *ClientCtx) { c.WriteTag(0, ino, fbn, n, tag) })
			for i := range n {
				k := residencyKey{ino, fbn + FBN(i)}
				cur.content[k] = tag
				shadow.insert(k)
				if capacity == 0 {
					logged = append(logged, func() { shadow.insert(k) })
				}
			}
		case p < 75: // read one block, mostly a written one
			k := residencyKey{pick(), FBN(rng.Intn(fileBlocks))}
			if written := slices.SortedFunc(maps.Keys(cur.content), func(a, b residencyKey) int {
				return cmp.Or(cmp.Compare(a.ino, b.ino), cmp.Compare(a.fbn, b.fbn))
			}); len(written) > 0 && rng.Intn(4) > 0 {
				k = written[rng.Intn(len(written))]
			}
			ino := k.ino
			pays := !shadow.touch(k) && onMedia[k]
			before := sys.Stats().Drives.ReadService.Count
			do(step, "read", func(c *ClientCtx) { c.Read(0, ino, k.fbn, 1) })
			reads++
			if pays {
				paid++
			}
			if paid := sys.Stats().Drives.ReadService.Count - before; paid != map[bool]uint64{false: 0, true: 1}[pays] {
				t.Fatalf("step %d: read of ino %d fbn %d paid %d drive reads, the keep-everything rule says %v", step, ino, k.fbn, paid, pays)
			}
			got := sys.VerifyRead(0, ino, k.fbn)
			if tag, ok := cur.content[k]; !ok && got != nil || ok && !bytes.Equal(got, sys.payload(ino, k.fbn, tag)) {
				t.Fatalf("step %d: ino %d fbn %d reads %d bytes, want tag %d (written %v)", step, ino, k.fbn, len(got), tag, ok)
			}
		case p < 82: // a CP
			if err := sys.Flush(); err != nil {
				t.Fatal(err)
			}
			committed()
		case p < 87: // snapshot create
			var id uint64
			do(step, "snapshot", func(c *ClientCtx) { id = c.SnapCreate(0) })
			committed()
			snaps[id] = cur.clone()
		case p < 91 && len(snaps) > 0: // snapshot restore
			ids := slices.Sorted(maps.Keys(snaps))
			id := ids[rng.Intn(len(ids))]
			do(step, "restore", func(c *ClientCtx) {
				if !c.SnapRestore(0, id) {
					t.Errorf("step %d: restore of snapshot %d refused", step, id)
				}
			})
			restores++
			cur = snaps[id].clone()
			shadow.lru = nil
			clear(onMedia)
			committed()
		case p < 95 && len(cur.files) > 1: // delete a file, create another
			ino := pick()
			var created uint64
			do(step, "delete", func(c *ClientCtx) {
				c.Delete(0, ino)
				created = c.Create(0, fileBlocks)
			})
			delete(cur.files, ino)
			cur.files[created] = true
			for k := range cur.content {
				if k.ino == ino {
					delete(cur.content, k)
					delete(onMedia, k)
				}
			}
			shadow.dropFile(ino)
			logged = append(logged, func() { shadow.dropFile(ino) })
		case p >= 95: // crash and recover
			sys.Crash()
			rec, err := sys.Recover()
			if err != nil {
				t.Fatal(err)
			}
			sys = rec
			crashes++
			// The cache restarts cold; the trees are rebuilt, and replay
			// writes again what the log holds.
			shadow.lru = nil
			for _, fn := range logged {
				fn()
			}
			if err := sys.Flush(); err != nil {
				t.Fatal(err)
			}
			committed()
		}
	}
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d reads, %d paid; %d restores, %d crashes", reads, paid, restores, crashes)
}

// TestVerifyReadLeavesResidency: VerifyRead reads without timing effects, so
// it must not make a block resident. After a crash nothing is resident; a
// committed block that VerifyRead has read and no client has still costs the
// next client read one drive read.
func TestVerifyReadLeavesResidency(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	sys.writeDirect(0, ino, []uint64{3}, 0)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	if got := rec.VerifyRead(0, ino, 3); !bytes.Equal(got, rec.payload(ino, 3, 0)) {
		t.Fatalf("VerifyRead returned %d bytes, not the written block", len(got))
	}
	before := rec.Stats().Drives.ReadService.Count
	done := false
	rec.ClientThread("r", func(c *ClientCtx) {
		c.Read(0, ino, 3, 1)
		done = true
	})
	for i := 0; !done && i < 100; i++ {
		rec.Run(Millisecond)
	}
	if got := rec.Stats().Drives.ReadService.Count - before; !done || got != 1 {
		t.Fatalf("client read after VerifyRead paid %d drive reads (done %v), want 1", got, done)
	}
}
