package wafl

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// cloneConfig is crashConfig with clone slots provisioned.
func cloneConfig() Config {
	cfg := crashConfig()
	cfg.CloneSlots = 2
	return cfg
}

// expectBlock checks one live block of (vol, ino) against the tagged payload
// (or a hole when tag < 0).
func expectBlock(t *testing.T, sys *System, vol int, ino uint64, fbn FBN, tag int, label string) {
	t.Helper()
	got := sys.VerifyRead(vol, ino, fbn)
	if tag < 0 {
		if got != nil {
			t.Fatalf("%s: vol %d fbn %d: want hole, got data", label, vol, fbn)
		}
		return
	}
	want := sys.payload(ino, fbn, byte(tag))
	if got == nil {
		t.Fatalf("%s: vol %d fbn %d: want tag %q, got hole", label, vol, fbn, byte(tag))
	}
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("%s: vol %d fbn %d: content mismatch (want tag %q)", label, vol, fbn, byte(tag))
	}
}

// TestCloneEndToEnd drives the full clone lifecycle: a clone binds to a
// parent snapshot sharing every base block (no data copy), diverges by
// copy-on-first-write without disturbing the parent or its snapshot, holds
// the parent snapshot against deletion, surfaces clone-held blocks in the
// space breakdown, and a split block-copies the remaining shared blocks
// until the parent hold and delete guard drop. fsck stays clean throughout
// (shared base blocks are neither leaked nor double-referenced).
func TestCloneEndToEnd(t *testing.T) {
	sys, ino := newCrashSystem(t, cloneConfig())
	const n = 96
	var snapID uint64
	var cloneVol int
	var cloneOK bool
	sys.ClientThread("cloner", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
		snapID = c.SnapCreate(0)
		// The parent's live file system moves on past the snapshot.
		for fbn := FBN(0); fbn < n/2; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'B')
		}
		cloneVol, cloneOK = c.CloneCreate(0, snapID)
		if !cloneOK {
			return
		}
		// The clone diverges over the first quarter.
		for fbn := FBN(0); fbn < n/4; fbn++ {
			c.WriteTag(cloneVol, ino, fbn, 1, 'D')
		}
	})
	sys.Run(10 * Second)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if !cloneOK {
		t.Fatal("clone create failed")
	}
	if !sys.CloneBound(cloneVol) {
		t.Fatal("clone not bound after flush")
	}
	if vols := sys.CloneVolumes(); len(vols) != 1 || vols[0] != cloneVol {
		t.Fatalf("CloneVolumes = %v, want [%d]", vols, cloneVol)
	}
	if pv, ps, ok := sys.CloneParent(cloneVol); !ok || pv != 0 || ps != snapID {
		t.Fatalf("CloneParent = (%d, %d, %v), want (0, %d, true)", pv, ps, ok, snapID)
	}

	// (a) Content: the clone sees its own writes over the snapshot image;
	// the parent live file system and the frozen snapshot are untouched.
	for fbn := FBN(0); fbn < n/4; fbn++ {
		expectBlock(t, sys, cloneVol, ino, fbn, 'D', "clone diverged")
	}
	for fbn := FBN(n / 4); fbn < n; fbn++ {
		expectBlock(t, sys, cloneVol, ino, fbn, 'A', "clone base")
	}
	for fbn := FBN(0); fbn < n/2; fbn++ {
		expectBlock(t, sys, 0, ino, fbn, 'B', "parent live")
	}
	for fbn := FBN(n / 2); fbn < n; fbn++ {
		expectBlock(t, sys, 0, ino, fbn, 'A', "parent live")
	}
	for fbn := FBN(0); fbn < n; fbn++ {
		expectSnapBlock(t, sys, snapID, ino, fbn, 'A', "parent snapshot under clone")
	}

	// (b) Space accounting: base blocks are clone-held; the diverged ones
	// are still held (summary hold outlives divergence until a split).
	fsb := sys.FreeSpaceBreakdown(cloneVol)
	if fsb.CloneHeld == 0 {
		t.Fatalf("clone reports no clone-held blocks: %+v", fsb)
	}
	if fsb.SplitPending != 0 {
		t.Fatalf("split pending before any split: %+v", fsb)
	}

	// (c) Delete guard: the parent snapshot cannot die while the clone
	// shares its blocks.
	if sys.SnapDeleteDirect(0, snapID) {
		t.Fatal("parent snapshot deleted while a clone references it")
	}

	// (d) CP accounting and integrity with a live clone.
	if st := sys.CPStats(); st.CloneBinds != 1 {
		t.Fatalf("CloneBinds = %d, want 1", st.CloneBinds)
	}
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck with bound clone: %s", rep)
	}

	// (e) Split: background block copy until no base block is shared, then
	// the parent hold and delete guard drop.
	sys.ClientThread("splitter", func(c *ClientCtx) {
		if !c.CloneSplit(cloneVol) {
			t.Error("CloneSplit refused")
		}
	})
	sys.Run(2 * Second)
	for i := 0; i < 50 && !sys.CloneSplitDone(cloneVol); i++ {
		sys.ForceCP()
		sys.Run(500 * Millisecond)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if !sys.CloneSplitDone(cloneVol) {
		t.Fatal("split did not complete")
	}
	if st := sys.CPStats(); st.SplitsDone != 1 || st.SplitCopied == 0 {
		t.Fatalf("split counters: done=%d copied=%d", st.SplitsDone, st.SplitCopied)
	}
	if fsb := sys.FreeSpaceBreakdown(cloneVol); fsb.CloneHeld != 0 || fsb.SplitPending != 0 {
		t.Fatalf("clone-held blocks after split: %+v", fsb)
	}

	// (f) Guard dropped: the parent snapshot can die now, and the split
	// volume keeps its content (its own copies).
	if !sys.SnapDeleteDirect(0, snapID) {
		t.Fatal("parent snapshot still guarded after split")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	for fbn := FBN(0); fbn < n/4; fbn++ {
		expectBlock(t, sys, cloneVol, ino, fbn, 'D', "split volume")
	}
	for fbn := FBN(n / 4); fbn < n; fbn++ {
		expectBlock(t, sys, cloneVol, ino, fbn, 'A', "split volume")
	}
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck after split and parent snapshot delete: %s", rep)
	}
}

// TestSnapRestoreEndToEnd checks instant SnapRestore: a volume reverts to a
// snapshot without data copy — overwritten and extended blocks vanish, the
// freed space returns to the pool, the gate reopens for new writes — and the
// CP-side work is O(metadata), far below the data size being "restored".
func TestSnapRestoreEndToEnd(t *testing.T) {
	sys, ino := newCrashSystem(t, cloneConfig())
	const n = 256
	var snapID uint64
	var restored bool
	var freeBefore uint64
	sys.ClientThread("restorer", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
		snapID = c.SnapCreate(0)
		// Churn past the snapshot: overwrite everything, extend the file.
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'B')
		}
		for fbn := FBN(n); fbn < n+64; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'B')
		}
		freeBefore = sys.FreeSpaceBreakdown(0).Free
		restored = c.SnapRestore(0, snapID)
		if !restored {
			return
		}
		// The gate reopened: the volume accepts writes again.
		c.WriteTag(0, ino, 0, 1, 'C')
	})
	sys.Run(20 * Second)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("SnapRestore failed")
	}

	// Content reverted: block 0 carries the post-restore write, the rest of
	// the snapshot image is back, and the post-snapshot extension is gone.
	expectBlock(t, sys, 0, ino, 0, 'C', "post-restore write")
	for fbn := FBN(1); fbn < n; fbn++ {
		expectBlock(t, sys, 0, ino, fbn, 'A', "restored image")
	}
	for fbn := FBN(n); fbn < n+64; fbn++ {
		expectBlock(t, sys, 0, ino, fbn, -1, "discarded extension")
	}
	// The snapshot itself survives the restore.
	for fbn := FBN(0); fbn < n; fbn++ {
		expectSnapBlock(t, sys, snapID, ino, fbn, 'A', "snapshot after restore")
	}

	// Space: the discarded present's blocks returned to the free pool.
	fsb := sys.FreeSpaceBreakdown(0)
	if fsb.Free <= freeBefore {
		t.Fatalf("restore freed nothing: free %d -> %d", freeBefore, fsb.Free)
	}

	// O(metadata): the CP-side restore walk is bitmap words plus inode-file
	// blocks — far below the ~320 data blocks whose ownership flipped.
	st := sys.CPStats()
	if st.Restores != 1 {
		t.Fatalf("Restores = %d, want 1", st.Restores)
	}
	if st.RestoreBlocks == 0 || st.RestoreBlocks > n/2 {
		t.Fatalf("restore walked %d metadata blocks; want (0, %d] — not O(data)", st.RestoreBlocks, n/2)
	}
	if st.RestoreFreed == 0 {
		t.Fatalf("restore freed no blocks: %+v", st)
	}
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck after restore: %s", rep)
	}

	// A restore that shrinks the inode file: the snapshot's holds one block
	// of 64 records (user inodes 16..63), and files created after it reach
	// inode 64, whose record a CP writes to a second block before the
	// restore, which must zero it.
	t.Run("shrinks the inode file", func(t *testing.T) {
		sys, ino := newCrashSystem(t, cloneConfig())
		const blocks = 4
		files, later := []uint64{ino}, []uint64(nil)
		var snapID uint64
		var restored bool
		run := func(name string, fn func(*ClientCtx)) {
			sys.ClientThread(name, fn)
			sys.Run(20 * Second)
			if err := sys.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		run("writer", func(c *ClientCtx) {
			for len(files) < 8 {
				files = append(files, c.Create(0, blocks))
			}
			for _, f := range files {
				for fbn := FBN(0); fbn < blocks; fbn++ {
					c.WriteTag(0, f, fbn, 1, 'A')
				}
			}
			snapID = c.SnapCreate(0)
			for len(later) == 0 || later[len(later)-1] < 64 {
				f := c.Create(0, blocks)
				c.WriteTag(0, f, 0, 1, 'B')
				later = append(later, f)
			}
			for _, f := range files {
				c.WriteTag(0, f, 0, 1, 'B')
			}
		})
		run("restorer", func(c *ClientCtx) { restored = c.SnapRestore(0, snapID) })
		if !restored {
			t.Fatal("SnapRestore failed")
		}
		check := func(sys *System, label string) {
			t.Helper()
			for _, f := range later {
				if sys.FileExists(0, f) {
					t.Fatalf("%s: inode %d, created after the snapshot, survived the restore", label, f)
				}
			}
			for _, f := range files {
				for fbn := FBN(0); fbn < blocks; fbn++ {
					expectBlock(t, sys, 0, f, fbn, 'A', label)
				}
			}
			if rep := sys.Fsck(); !rep.OK() {
				t.Fatalf("fsck %s: %s", label, rep)
			}
		}
		check(sys, "after restore")
		sys.Crash()
		rec, err := sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Shutdown()
		check(rec, "after recovery")
	})
}

// TestSnapRestoreOfClone restores a clone volume to its own snapshot: the
// two subsystems compose — the clone's snapshot captures diverged state, a
// later overwrite is rolled back, and the base holds stay intact.
func TestSnapRestoreOfClone(t *testing.T) {
	sys, ino := newCrashSystem(t, cloneConfig())
	const n = 64
	var cloneVol int
	var ok, restored bool
	var cloneSnap uint64
	sys.ClientThread("w", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
		parentSnap := c.SnapCreate(0)
		cloneVol, ok = c.CloneCreate(0, parentSnap)
		if !ok {
			return
		}
		for fbn := FBN(0); fbn < n/2; fbn++ {
			c.WriteTag(cloneVol, ino, fbn, 1, 'D')
		}
		cloneSnap = c.SnapCreate(cloneVol)
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(cloneVol, ino, fbn, 1, 'E')
		}
		restored = c.SnapRestore(cloneVol, cloneSnap)
	})
	sys.Run(20 * Second)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if !ok || !restored {
		t.Fatalf("clone=%v restore=%v", ok, restored)
	}
	for fbn := FBN(0); fbn < n/2; fbn++ {
		expectBlock(t, sys, cloneVol, ino, fbn, 'D', "restored clone")
	}
	for fbn := FBN(n / 2); fbn < n; fbn++ {
		expectBlock(t, sys, cloneVol, ino, fbn, 'A', "restored clone base")
	}
	if fsb := sys.FreeSpaceBreakdown(cloneVol); fsb.CloneHeld == 0 {
		t.Fatalf("clone lost its base holds across a restore: %+v", fsb)
	}
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck after clone restore: %s", rep)
	}
}

// cloneCrashSweep crashes at CP phase boundary j (1-based) inside the
// window opened by op, then verifies the recovered image with verify (run
// twice: right after recovery and again after a quiesce) and fsck.
func cloneCrashSweep(t *testing.T, setup func(sys *System, ino uint64, window *bool), verify func(t *testing.T, rec *System, ino uint64, label string)) {
	for j := 1; j <= len(cpBoundaries); j++ {
		j := j
		t.Run(fmt.Sprintf("boundary-%02d", j), func(t *testing.T) {
			sys, ino := newCrashSystem(t, cloneConfig())
			window := false
			setup(sys, ino, &window)
			hits := 0
			sys.SetCPPhaseHook(func(phase string) bool {
				if !window {
					return false
				}
				hits++
				if hits == j {
					sys.RequestHalt()
					return true
				}
				return false
			})
			sys.Run(30 * Second)
			if !sys.Halted() {
				t.Fatalf("boundary %d never reached inside the op window", j)
			}
			sys.Crash()
			rec, err := sys.Recover()
			if err != nil {
				t.Fatal(err)
			}
			verify(t, rec, ino, "recovery")
			if rep := rec.Fsck(); !rep.OK() {
				t.Fatalf("fsck after crash at boundary %d: %s", j, rep)
			}
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			verify(t, rec, ino, "after quiesce")
			if rep := rec.Fsck(); !rep.OK() {
				t.Fatalf("fsck after quiesce: %s", rep)
			}
			rec.Shutdown()
		})
	}
}

// TestCloneCreateCrashAtEveryCPPhase crashes at each CP phase boundary while
// a CloneCreate is in flight. The create was never acknowledged, so both
// legs are legal: no clone at all, or (once the logged record replays and a
// CP commits) a fully bound clone whose content is exactly the parent
// snapshot's frozen image — never anything in between.
func TestCloneCreateCrashAtEveryCPPhase(t *testing.T) {
	const n = 48
	var snapID uint64
	setup := func(sys *System, ino uint64, window *bool) {
		snapID = 0
		sys.ClientThread("w", func(c *ClientCtx) {
			for fbn := FBN(0); fbn < n; fbn++ {
				c.WriteTag(0, ino, fbn, 1, 'A')
			}
			snapID = c.SnapCreate(0)
			*window = true
			cv, ok := c.CloneCreate(0, snapID)
			*window = false
			if ok {
				for fbn := FBN(0); fbn < 8; fbn++ {
					c.WriteTag(cv, ino, fbn, 1, 'D')
				}
			}
		})
	}
	verify := func(t *testing.T, rec *System, ino uint64, label string) {
		t.Helper()
		if snapID == 0 || !rec.SnapshotExists(0, snapID) {
			t.Fatalf("%s: acked parent snapshot missing", label)
		}
		for fbn := FBN(0); fbn < n; fbn++ {
			expectBlock(t, rec, 0, ino, fbn, 'A', label)
			expectSnapBlock(t, rec, snapID, ino, fbn, 'A', label)
		}
		// If the logged create replayed, the clone must converge to a full
		// bind with exactly the frozen image (it may still be pending right
		// after recovery; after quiesce a pending bind must have resolved).
		for _, cv := range rec.CloneVolumes() {
			if label == "after quiesce" && !rec.CloneBound(cv) {
				t.Fatalf("%s: replayed clone bind never materialized", label)
			}
			if rec.CloneBound(cv) {
				for fbn := FBN(0); fbn < n; fbn++ {
					expectBlock(t, rec, cv, ino, fbn, 'A', label+" clone image")
				}
				if rec.SnapDeleteDirect(0, snapID) {
					t.Fatalf("%s: parent snapshot not guarded by recovered clone", label)
				}
			}
		}
	}
	cloneCrashSweep(t, setup, verify)
}

// TestCloneSplitCrashAtEveryCPPhase crashes at each CP phase boundary after
// a CloneSplit was issued (the window stays open through the copying CPs).
// The clone's acknowledged content — diverged writes over the base image —
// must survive every crash; after quiescing, the split either completed
// (holds and guard dropped) or the still-bound clone still guards its
// parent, but never a half-state.
func TestCloneSplitCrashAtEveryCPPhase(t *testing.T) {
	const n = 48
	var snapID uint64
	var cloneVol int
	var cloneOK bool
	setup := func(sys *System, ino uint64, window *bool) {
		snapID, cloneVol, cloneOK = 0, 0, false
		sys.ClientThread("w", func(c *ClientCtx) {
			for fbn := FBN(0); fbn < n; fbn++ {
				c.WriteTag(0, ino, fbn, 1, 'A')
			}
			snapID = c.SnapCreate(0)
			cloneVol, cloneOK = c.CloneCreate(0, snapID)
			if !cloneOK {
				return
			}
			for fbn := FBN(0); fbn < n/4; fbn++ {
				c.WriteTag(cloneVol, ino, fbn, 1, 'D')
			}
			*window = true
			c.CloneSplit(cloneVol)
			// Pump writes so CPs keep coming while the split copies.
			for i := 0; c.Alive() && i < 2000; i++ {
				c.WriteTag(0, ino, FBN(i%int(n)), 1, 'B')
			}
		})
	}
	verify := func(t *testing.T, rec *System, ino uint64, label string) {
		t.Helper()
		if !cloneOK {
			t.Fatalf("%s: clone never bound before the split window", label)
		}
		for fbn := FBN(0); fbn < n/4; fbn++ {
			expectBlock(t, rec, cloneVol, ino, fbn, 'D', label+" clone")
		}
		for fbn := FBN(n / 4); fbn < n; fbn++ {
			expectBlock(t, rec, cloneVol, ino, fbn, 'A', label+" clone base")
		}
		for fbn := FBN(0); fbn < n; fbn++ {
			expectSnapBlock(t, rec, snapID, ino, fbn, 'A', label+" parent snap")
		}
		if rec.CloneSplitDone(cloneVol) {
			if fsb := rec.FreeSpaceBreakdown(cloneVol); fsb.CloneHeld != 0 {
				t.Fatalf("%s: split done but %d blocks still clone-held", label, fsb.CloneHeld)
			}
		} else if rec.CloneBound(cloneVol) {
			if rec.SnapDeleteDirect(0, snapID) {
				t.Fatalf("%s: mid-split clone no longer guards its parent snapshot", label)
			}
		}
	}
	cloneCrashSweep(t, setup, verify)
}

// TestSnapRestoreCrashAtEveryCPPhase crashes at each CP phase boundary while
// a SnapRestore is in flight. The restore was never acknowledged, so two
// legs are legal — the volume fully reverted to the snapshot image, or the
// pre-restore acknowledged writes fully intact — but never a mix: the
// restore is atomic with a committed CP.
func TestSnapRestoreCrashAtEveryCPPhase(t *testing.T) {
	const n = 48
	var snapID uint64
	setup := func(sys *System, ino uint64, window *bool) {
		snapID = 0
		sys.ClientThread("w", func(c *ClientCtx) {
			for fbn := FBN(0); fbn < n; fbn++ {
				c.WriteTag(0, ino, fbn, 1, 'A')
			}
			snapID = c.SnapCreate(0)
			for fbn := FBN(0); fbn < n/2; fbn++ {
				c.WriteTag(0, ino, fbn, 1, 'B')
			}
			*window = true
			c.SnapRestore(0, snapID)
			*window = false
		})
	}
	verify := func(t *testing.T, rec *System, ino uint64, label string) {
		t.Helper()
		if snapID == 0 || !rec.SnapshotExists(0, snapID) {
			t.Fatalf("%s: acked snapshot missing", label)
		}
		// Decide the leg from block 0, then the whole image must agree.
		legB := false
		if got := rec.VerifyRead(0, ino, 0); got != nil {
			wantB := rec.payload(ino, 0, 'B')
			legB = bytes.Equal(got[:len(wantB)], wantB)
		}
		for fbn := FBN(0); fbn < n; fbn++ {
			want := 'A'
			if legB && fbn < n/2 {
				want = 'B'
			}
			expectBlock(t, rec, 0, ino, fbn, int(want), fmt.Sprintf("%s (legB=%v)", label, legB))
		}
		for fbn := FBN(0); fbn < n; fbn++ {
			expectSnapBlock(t, rec, snapID, ino, fbn, 'A', label)
		}
	}
	cloneCrashSweep(t, setup, verify)
}

// TestBCacheRestoreCoherence is the buffer-cache coherence regression: a
// SnapRestore must invalidate the volume's resident blocks — the discarded
// present's residency must not let post-restore reads skip media — and a
// file delete must evict the file's blocks from the resident set.
func TestBCacheRestoreCoherence(t *testing.T) {
	cfg := cloneConfig()
	cfg.BCacheBlocks = 4096
	sys, ino := newCrashSystem(t, cfg)
	const n = 64
	var snapID uint64
	var missesBeforeReread, missesAfterReread uint64
	var residentWithFile, residentAfterDelete int
	sys.ClientThread("w", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'A')
		}
		snapID = c.SnapCreate(0)
		for fbn := FBN(0); fbn < n; fbn++ {
			c.WriteTag(0, ino, fbn, 1, 'B')
		}
		// Warm: every block is resident from its write.
		c.Read(0, ino, 0, n)
		if !c.SnapRestore(0, snapID) {
			t.Error("restore failed")
			return
		}
		missesBeforeReread = sys.BCacheStats().Misses
		c.Read(0, ino, 0, n)
		missesAfterReread = sys.BCacheStats().Misses
		// Delete-path coherence: a deleted file's blocks leave the
		// resident set.
		f := c.Create(0, 64)
		c.Write(0, f, 0, 32)
		residentWithFile = sys.BCacheStats().Resident
		c.Delete(0, f)
		residentAfterDelete = sys.BCacheStats().Resident
	})
	sys.Run(20 * Second)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := missesAfterReread - missesBeforeReread; got < n {
		t.Fatalf("re-read after restore took %d misses, want >= %d: stale residency survived the restore", got, n)
	}
	if residentAfterDelete >= residentWithFile {
		t.Fatalf("delete evicted nothing: resident %d -> %d", residentWithFile, residentAfterDelete)
	}
	// Content correctness through the cache after the restore.
	for fbn := FBN(0); fbn < n; fbn++ {
		expectBlock(t, sys, 0, ino, fbn, 'A', "post-restore read-through")
	}
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %s", rep)
	}
}

// TestCloneFreeRunBitIdenticalToBaseline pins the clone subsystem's zero-
// cost contract: with CloneSlots = 0 (the default) the system is
// bit-identical — superblock, trace stream, event count — to the PR 6
// Members=1 golden baseline captured before clones existed.
func TestCloneFreeRunBitIdenticalToBaseline(t *testing.T) {
	cfg := smallConfig()
	cfg.CloneSlots = 0
	super, trace, events := goldenScenario(t, cfg)
	if super != goldenSuperSHA {
		t.Errorf("superblock digest drifted with CloneSlots=0:\n got %s\nwant %s", super, goldenSuperSHA)
	}
	if trace != goldenTraceSHA {
		t.Errorf("trace digest drifted with CloneSlots=0:\n got %s\nwant %s", trace, goldenTraceSHA)
	}
	if events != goldenEvents {
		t.Errorf("event count drifted with CloneSlots=0: got %d want %d", events, goldenEvents)
	}
}

// TestSnapRestoreOfSplittingClone: the split step is a writer and must obey
// the restore gate. A SnapRestore of a clone to a clone-local snapshot that
// lands while a split CP is between its freeze cut and its split step used to
// let that step reload the files the request had just discarded and dirty
// their base blocks a second time; the CP applying the restore then cleaned
// the stale buffers and died with "bitmap: double free". The request is swept
// across the split's consistency points; delays of 80-304 us land in that
// window.
func TestSnapRestoreOfSplittingClone(t *testing.T) {
	const n = 64
	for delay := Duration(0); delay <= 400*Microsecond; delay += 40 * Microsecond {
		sys, ino := newCrashSystem(t, cloneConfig())
		var cloneVol int
		var restored bool
		sys.ClientThread("w", func(c *ClientCtx) {
			c.WriteTag(0, ino, 0, n, 'A')
			cloneVol, _ = c.CloneCreate(0, c.SnapCreate(0))
			c.WriteTag(cloneVol, ino, 0, n/2, 'D')
			cloneSnap := c.SnapCreate(cloneVol)
			c.WriteTag(cloneVol, ino, n/4, n/2, 'E')
			c.CloneSplit(cloneVol)
			c.Think(delay)
			restored = c.SnapRestore(cloneVol, cloneSnap)
		})
		sys.Run(20 * Second)
		if err := sys.Flush(); err != nil {
			t.Fatal(err)
		}
		if !restored {
			t.Fatalf("delay %v: restore refused", delay)
		}
		for fbn := FBN(0); fbn < n; fbn++ {
			tag := 'A'
			if fbn < n/2 {
				tag = 'D'
			}
			expectBlock(t, sys, cloneVol, ino, fbn, int(tag), fmt.Sprintf("delay %v: restored clone", delay))
		}
		if rep := sys.Fsck(); !rep.OK() {
			t.Fatalf("delay %v: fsck: %s", delay, rep)
		}
		sys.Shutdown()
	}
}

// TestWriteStallsOnRestoreGate sends a client write to a volume whose
// SnapRestore gate is closed, live and on a recovered system whose NVRAM
// replay closed it again: the write stalls (ClientCtx.stallRestore) until the
// restoring CP commits, then lands. Client.Stalls rises with no NVRAM-full
// round, the content is the reference payload's with the restored holes, and
// fsck is clean.
func TestWriteStallsOnRestoreGate(t *testing.T) {
	const n = 64
	sys, ino := newCrashSystem(t, cloneConfig())
	var snapID uint64
	sys.ClientThread("setup", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < 2*n; fbn++ {
			c.Write(0, ino, fbn, 1)
			if fbn == n-1 {
				snapID = c.SnapCreate(0)
			}
		}
	})
	sys.Run(20 * Second)
	// gatedWrite writes block fbn as soon as the volume's gate is closed.
	gatedWrite := func(sys *System, fbn FBN) {
		v := sys.m0().a.Volume(0)
		sys.ClientThread("gated", func(c *ClientCtx) {
			for !v.RestorePending() {
				c.t.Sleep(Microsecond)
			}
			c.Write(0, ino, fbn, 1)
		})
	}
	// check holds sys to the snapshot's blocks, the holes the restore left
	// and the written ones, to a clean fsck, and to a stall round since
	// before with no NVRAM-full one.
	check := func(sys *System, before ClientStats, written []FBN, label string) {
		t.Helper()
		if err := sys.Flush(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		after := sys.Stats().Client
		if after.Stalls <= before.Stalls || after.LogStall.Count != before.LogStall.Count {
			t.Fatalf("%s: stall rounds %d -> %d, NVRAM-full ones %d -> %d; want a gate stall and no NVRAM one",
				label, before.Stalls, after.Stalls, before.LogStall.Count, after.LogStall.Count)
		}
		for fbn := FBN(0); fbn < 2*n+2; fbn++ {
			if fbn < n || slices.Contains(written, fbn) {
				if err := sys.VerifyAgainst(0, ino, fbn); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			} else {
				expectBlock(t, sys, 0, ino, fbn, -1, label)
			}
		}
		if rep := sys.Fsck(); !rep.OK() {
			t.Fatalf("%s: fsck: %s", label, rep)
		}
	}

	before := sys.Stats().Client
	restored := false
	sys.ClientThread("restorer", func(c *ClientCtx) { restored = c.SnapRestore(0, snapID) })
	gatedWrite(sys, 2*n)
	sys.Run(20 * Second)
	if !restored {
		t.Fatal("SnapRestore failed")
	}
	check(sys, before, []FBN{2 * n}, "live")

	// Crash while a second restore to the snapshot is logged but its CP has
	// not committed: replay closes the gate again, and a write after recovery
	// meets it.
	before = sys.Stats().Client
	sys.ClientThread("restorer", func(c *ClientCtx) { c.SnapRestore(0, snapID) })
	for v := sys.m0().a.Volume(0); !v.RestorePending(); {
		sys.Run(Microsecond)
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	if !rec.m0().a.Volume(0).RestorePending() {
		t.Fatal("replay left the restore gate open")
	}
	gatedWrite(rec, 2*n+1)
	rec.Run(20 * Second)
	check(rec, before, []FBN{2*n + 1}, "recovered")
}
