package wafl

import (
	"bytes"
	"fmt"
	"testing"

	"wafl/internal/block"
	"wafl/internal/storage"
)

// expectSnapBlock checks one block of a snapshot's frozen image against the
// expected tagged payload (or a hole when tag < 0).
func expectSnapBlock(t *testing.T, sys *System, snapID, ino uint64, fbn FBN, tag int, label string) {
	t.Helper()
	data, ok := sys.SnapVerifyRead(0, snapID, ino, fbn)
	if !ok {
		t.Fatalf("%s: snap %d has no image of ino %d", label, snapID, ino)
	}
	if tag < 0 {
		if data != nil {
			t.Fatalf("%s: snap %d fbn %d: want hole, got data", label, snapID, fbn)
		}
		return
	}
	want := sys.payload(ino, fbn, byte(tag))
	if data == nil {
		t.Fatalf("%s: snap %d fbn %d: want tag %q, got hole", label, snapID, fbn, byte(tag))
	}
	if !bytes.Equal(data[:len(want)], want) {
		t.Fatalf("%s: snap %d fbn %d: frozen content mutated (want tag %q)", label, snapID, fbn, byte(tag))
	}
}

// TestSnapshotEndToEnd drives the full snapshot lifecycle under overwrite
// churn: two snapshots freeze distinct images (tags A and B) while the live
// file system moves on (tag C); the free-space breakdown exposes the
// snapshot-held blocks; fsck stays clean with the snapshots present; and
// deleting both returns every exclusively-held block to the free pool.
// The allocator invariant (never hand out a summary-held VVBN) is enforced
// throughout by the panic in commitVBucket.
func TestSnapshotEndToEnd(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	const n = 64
	var snap1, snap2 uint64
	sys.ClientThread("snapper", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
		snap1 = c.SnapCreate(0)
		// Overwrite the first half and extend past the frozen image.
		for fbn := FBN(0); fbn < n/2; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'B')
		}
		for fbn := FBN(n); fbn < n+16; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'B')
		}
		snap2 = c.SnapCreate(0)
		for fbn := FBN(0); fbn < n+16; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'C')
		}
	})
	sys.Run(10 * Second)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if snap1 == 0 || snap2 == 0 {
		t.Fatal("snapshots were not created")
	}

	// (a) Frozen content under churn: snap1 is all-A with holes past n;
	// snap2 sees the B overwrites and the extension; the live file is all-C.
	for fbn := FBN(0); fbn < n; fbn++ {
		expectSnapBlock(t, sys, snap1, ino, fbn, 'A', "snap1")
	}
	for fbn := FBN(n); fbn < n+16; fbn++ {
		expectSnapBlock(t, sys, snap1, ino, fbn, -1, "snap1")
	}
	for fbn := FBN(0); fbn < n/2; fbn++ {
		expectSnapBlock(t, sys, snap2, ino, fbn, 'B', "snap2")
	}
	for fbn := FBN(n / 2); fbn < FBN(n); fbn++ {
		expectSnapBlock(t, sys, snap2, ino, fbn, 'A', "snap2")
	}
	for fbn := FBN(n); fbn < n+16; fbn++ {
		expectSnapBlock(t, sys, snap2, ino, fbn, 'B', "snap2")
	}
	for fbn := FBN(0); fbn < n+16; fbn++ {
		want := sys.payload(ino, fbn, 'C')
		got := sys.VerifyRead(0, ino, fbn)
		if got == nil || !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("live fbn %d: want tag C content", fbn)
		}
	}

	// (b) Snapshot-held blocks are visible in the breakdown and excluded
	// from the free pool (free = !active && !summary).
	fsWith := sys.FreeSpaceBreakdown(0)
	if fsWith.SnapOnly == 0 {
		t.Fatal("no snapshot-held blocks after overwriting under two snapshots")
	}
	if fsWith.Active+fsWith.SnapOnly+fsWith.Free != fsWith.Total {
		t.Fatalf("breakdown does not partition the VVBN space: %+v", fsWith)
	}

	// (d) fsck clean with snapshots present: frozen trees are reachable,
	// snapshot-held blocks are neither leaked nor double-referenced.
	if rep := sys.Fsck(); !rep.OK() || rep.Snapshots != 2 {
		t.Fatalf("fsck with snapshots: %s", rep)
	}

	// (c) Deleting the last snapshot holding a block returns it to the free
	// pool, observable in the breakdown.
	sys.ClientThread("deleter", func(c *ClientCtx) {
		c.SnapDelete(0, snap1)
		c.SnapDelete(0, snap2)
	})
	sys.Run(2 * Second)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	fsAfter := sys.FreeSpaceBreakdown(0)
	if fsAfter.SnapOnly != 0 {
		t.Fatalf("blocks still snapshot-held after deleting every snapshot: %+v", fsAfter)
	}
	if fsAfter.Free <= fsWith.Free {
		t.Fatalf("deleting the snapshots freed nothing: %+v -> %+v", fsWith, fsAfter)
	}
	if rep := sys.Fsck(); !rep.OK() || rep.Snapshots != 0 {
		t.Fatalf("fsck after snapshot deletes: %s", rep)
	}
}

// TestSnapshotCrashAtEveryCPPhase runs a tagged-write workload with snapshot
// creates and deletes mixed in, then crashes at each CP phase boundary once
// snapshots exist. After recovery every acknowledged write, every
// acknowledged snapshot image (content and holes), and every acknowledged
// delete must be intact — and fsck must be clean before and after quiescing.
func TestSnapshotCrashAtEveryCPPhase(t *testing.T) {
	for j, want := range cpBoundaries {
		j, want := j+1, want
		t.Run(fmt.Sprintf("%02d-%s", j, want), func(t *testing.T) {
			sys, ino := newCrashSystem(t, crashConfig())
			written := map[FBN]byte{}
			type ackedSnap struct {
				id    uint64
				image map[FBN]byte // written-set at the acknowledged create
			}
			var (
				acked     []ackedSnap
				ackedDels []uint64
				pendFBN   = FBN(^uint64(0)) // in-flight write at crash time
				pendTag   byte
				pendDel   = uint64(0) // in-flight snapshot delete at crash time
			)
			tags := []byte{'A', 'B', 'C', 'D'}
			sys.ClientThread("snapwriter", func(c *ClientCtx) {
				for i := 0; c.Alive() && i < 2000; i++ {
					if i%150 == 140 {
						if i%300 == 140 && len(acked) > len(ackedDels) {
							victim := acked[len(ackedDels)].id
							pendDel = victim
							if c.SnapDelete(0, victim) {
								ackedDels = append(ackedDels, victim)
							}
							pendDel = 0
						} else {
							id := c.SnapCreate(0)
							img := make(map[FBN]byte, len(written))
							for k, v := range written {
								img[k] = v
							}
							acked = append(acked, ackedSnap{id, img})
						}
						continue
					}
					fbn := FBN(c.Rand(512))
					tag := tags[i%len(tags)]
					pendFBN, pendTag = fbn, tag
					c.WriteTag(0, ino, fbn, 1, tag)
					written[fbn] = tag
					pendFBN = FBN(^uint64(0))
				}
			})
			// Crash only once snapshot state is in play: count boundaries
			// after the first create and delete have both been acknowledged.
			hits := 0
			var got string
			sys.SetCPPhaseHook(func(phase string) bool {
				if len(acked) < 2 || len(ackedDels) < 1 {
					return false
				}
				hits++
				if hits == j {
					got = phase
					sys.RequestHalt()
					return true
				}
				return false
			})
			sys.Run(10 * Second)
			if !sys.Halted() {
				t.Fatalf("boundary %d never reached", j)
			}
			if got != want {
				t.Fatalf("boundary %d is %q, want %q", j, got, want)
			}
			sys.Crash()
			rec, err := sys.Recover()
			if err != nil {
				t.Fatal(err)
			}
			deleted := map[uint64]bool{}
			for _, id := range ackedDels {
				deleted[id] = true
			}
			verify := func(label string) {
				for fbn, tag := range written {
					gotb := rec.VerifyRead(0, ino, fbn)
					want := rec.payload(ino, fbn, tag)
					match := gotb != nil && bytes.Equal(gotb[:len(want)], want)
					if !match && fbn == pendFBN {
						// An in-flight write at crash time may have been
						// logged without being acknowledged; replay then
						// legitimately applies it over the acked content.
						pw := rec.payload(ino, fbn, pendTag)
						match = gotb != nil && bytes.Equal(gotb[:len(pw)], pw)
					}
					if !match {
						t.Fatalf("%s: acked write fbn %d tag %q lost", label, fbn, tag)
					}
				}
				for _, s := range acked {
					if deleted[s.id] {
						if rec.SnapshotExists(0, s.id) {
							t.Fatalf("%s: snapshot %d survives its acked delete", label, s.id)
						}
						continue
					}
					if !rec.SnapshotExists(0, s.id) {
						if s.id == pendDel {
							continue // unacked delete may have been logged
						}
						t.Fatalf("%s: acked snapshot %d missing", label, s.id)
					}
					for fbn := FBN(0); fbn < 512; fbn++ {
						tag, wrote := s.image[fbn]
						if !wrote {
							expectSnapBlock(t, rec, s.id, ino, fbn, -1, label)
						} else {
							expectSnapBlock(t, rec, s.id, ino, fbn, int(tag), label)
						}
					}
				}
			}
			verify("recovery")
			if rep := rec.Fsck(); !rep.OK() {
				t.Fatalf("fsck after crash at %q: %s", want, rep)
			}
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			verify("after quiesce")
			if rep := rec.Fsck(); !rep.OK() {
				t.Fatalf("fsck after quiesce: %s", rep)
			}
			rec.Shutdown()
		})
	}
}

// TestSnapshotDoubleCrashSurvival crashes twice in a row — the second time
// before the recovered system runs a single event — and checks acknowledged
// snapshots (and acked deletes) survive both, protected by NVRAM re-logging.
func TestSnapshotDoubleCrashSurvival(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	var (
		snapID uint64
		img    map[FBN]byte
		delID  uint64
	)
	sys.ClientThread("w", func(c *ClientCtx) {
		for fbn := FBN(0); c.Alive() && fbn < 128; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
		delID = c.SnapCreate(0)
		c.SnapDelete(0, delID)
		for fbn := FBN(0); c.Alive() && fbn < 64; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'B')
		}
		snapID = c.SnapCreate(0)
		// Keep writing so the crash lands with ops (and possibly snapshot
		// records) still in NVRAM.
		for i := 0; c.Alive() && i < 1000; i++ {
			c.WriteTag(0, ino, FBN(c.Rand(512)), 1, 'C')
		}
	})
	sys.SetCPPhaseHook(func(phase string) bool {
		if snapID == 0 {
			return false
		}
		sys.RequestHalt()
		return true
	})
	sys.Run(10 * Second)
	if snapID == 0 {
		t.Fatal("snapshot never created")
	}
	img = map[FBN]byte{}
	for fbn := FBN(0); fbn < 128; fbn++ {
		if fbn < 64 {
			img[fbn] = 'B'
		} else {
			img[fbn] = 'A'
		}
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	rec.Crash()
	rec2, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *System, label string) {
		if !s.SnapshotExists(0, snapID) {
			t.Fatalf("%s: acked snapshot %d missing", label, snapID)
		}
		if s.SnapshotExists(0, delID) {
			t.Fatalf("%s: snapshot %d survives its acked delete", label, delID)
		}
		for fbn, tag := range img {
			expectSnapBlock(t, s, snapID, ino, fbn, int(tag), label)
		}
	}
	check(rec2, "double-crash recovery")
	if err := rec2.Quiesce(); err != nil {
		t.Fatal(err)
	}
	check(rec2, "after quiesce")
	if rep := rec2.Fsck(); !rep.OK() {
		t.Fatalf("post-double-crash fsck: %s", rep)
	}
}

// TestFsckFlagsOwnerlessSummaryBit corrupts the committed summary map —
// setting a bit no snapshot owns — and checks fsck flags it instead of
// silently pinning the block forever.
func TestFsckFlagsOwnerlessSummaryBit(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	sys.ClientThread("w", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < 64; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
		c.SnapCreate(0)
	})
	sys.Run(5 * Second)
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if rep := sys.Fsck(); !rep.OK() || rep.Snapshots != 1 {
		t.Fatalf("baseline fsck: %s", rep)
	}

	// Pick a VVBN in the summary file's first block that nothing owns.
	v := sys.m0().a.Volume(0)
	limit := v.VVBNBlocks()
	if limit > block.Size*8 {
		limit = block.Size * 8
	}
	target, found := uint64(0), false
	for bn := uint64(0); bn < limit; bn++ {
		if !v.Activemap.IsSet(bn) && !v.Summary.IsSet(bn) {
			target, found = bn, true
			break
		}
	}
	if !found {
		t.Fatal("no free vvbn inside the summary map's first block")
	}

	// Walk the committed summary tree to its first L0 and flip the bit
	// directly on the media image.
	f := v.SummaryFile()
	if f.RootVBN == block.InvalidVBN {
		t.Fatal("summary map has no committed tree")
	}
	vbn := f.RootVBN
	for level := f.Height(); level > 0; level-- {
		data := sys.m0().a.ReadVBNRaw(vbn)
		if data == nil {
			t.Fatal("summary tree unreadable")
		}
		_, cvbn := block.GetPtr(data, 0)
		if cvbn == 0 || cvbn == block.InvalidVBN {
			t.Fatal("summary map block 0 is a hole")
		}
		vbn = cvbn
	}
	g, d, dbn := sys.m0().a.Geometry().Locate(vbn)
	media := sys.m0().a.Group(g).Drive(d).Peek(dbn)
	media[target/8] |= 1 << (target % 8)

	rep := sys.Fsck()
	if rep.OK() {
		t.Fatal("fsck passed with an ownerless summary bit")
	}
	if rep.SnapErrs == 0 {
		t.Fatalf("corruption not flagged as a snapshot error: %s", rep)
	}
}

// TestSnapshotReclaimWithSameCPFileDelete regression-tests a space leak in
// the phase-1b ordering: a file whose blocks a snapshot holds is deleted in
// the same CP that reclaims the snapshot. The file zombie frees its VVBNs
// through asynchronous free-commit messages; if the snapshot reclaim diffs
// its snapmap against the activemap before those clears settle, the shared
// blocks look active — their summary bits are cleared but the physical homes
// (reachable only through the container map) are never freed. Both deletes
// are queued directly with the scheduler stopped, so one CP deterministically
// processes the file zombie first and the snapshot zombie right after.
func TestSnapshotReclaimWithSameCPFileDelete(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	sys.ClientThread("w", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < 64; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
	})
	sys.Run(5 * Second)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}

	v := sys.m0().a.Volume(0)
	snapID := v.RequestSnapshot(0)
	if err := sys.Flush(); err != nil { // materialize: snapshot holds ino's blocks
		t.Fatal(err)
	}
	if !v.SnapshotExists(snapID) {
		t.Fatal("snapshot was not materialized")
	}

	// File delete and snapshot delete land as zombies of the same CP.
	if !v.DeleteFile(ino) {
		t.Fatal("file delete failed")
	}
	if !v.DeleteSnapshot(snapID) {
		t.Fatal("snapshot delete failed")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}

	if fs := sys.FreeSpaceBreakdown(0); fs.SnapOnly != 0 {
		t.Fatalf("blocks still snapshot-held after the snapshot died: %+v", fs)
	}
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck after same-CP file+snapshot delete: %s", rep)
	}
}

// TestSnapRead covers the client op nothing else calls, the timed read of a
// snapshot's frozen image: the old range stays readable after the live file
// moved on, the read pays for its media walk (snapshot trees live only on
// media) and is counted, and an unknown snapshot or inode reports false.
func TestSnapRead(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	const n = 8
	var snapID uint64
	var lat Duration
	var ok bool
	sys.ClientThread("reader", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
		snapID = c.SnapCreate(0)
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'B')
		}
		lat, ok = c.SnapRead(0, snapID, ino, 0, n)
	})
	sys.Run(10 * Second)
	if snapID == 0 || !ok {
		t.Fatalf("SnapRead of snapshot %d: ok = %v", snapID, ok)
	}
	if mediaRead := storage.SSD.PerIO + storage.SSD.PerBlock; lat < mediaRead {
		t.Fatalf("SnapRead of %d blocks took %v, less than one media read (%v)", n, lat, mediaRead)
	}
	if got := sys.Stats().Client.BlocksRead; got != n {
		t.Fatalf("BlocksRead = %d after a %d-block SnapRead", got, n)
	}
	for fbn := FBN(0); fbn < n; fbn++ {
		expectSnapBlock(t, sys, snapID, ino, fbn, 'A', "after overwrite")
	}

	okSnap, okIno := true, true
	sys.ClientThread("prober", func(c *ClientCtx) {
		_, okSnap = c.SnapRead(0, snapID+100, ino, 0, 1)
		_, okIno = c.SnapRead(0, snapID, ino+100, 0, 1)
	})
	sys.Run(Second)
	if okSnap || okIno {
		t.Fatalf("SnapRead of an unknown snapshot: ok = %v; of an unknown inode: ok = %v", okSnap, okIno)
	}
}
