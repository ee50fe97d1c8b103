package wafl

import (
	"testing"
)

// verifyFreeIndexes checks the live aggregate's free-space index and every
// live volume's against a full recount of their maps.
func verifyFreeIndexes(t *testing.T, sys *System, label string) {
	t.Helper()
	a := sys.m0().a
	if errs := a.FreeIdx.Verify(); len(errs) != 0 {
		t.Fatalf("%s: aggregate free-space index inconsistent: %v", label, errs)
	}
	for _, v := range a.Volumes() {
		if errs := v.FreeIdx.Verify(); len(errs) != 0 {
			t.Fatalf("%s: vol %d free-space index inconsistent: %v", label, v.ID(), errs)
		}
	}
}

// TestFreeIndexConsistentUnderChurn drives a seeded random mix of
// allocations (writes), frees (overwrites and file deletes), snapshot
// creates (summary OrFrom folds) and snapshot deletes (summary reclaim
// clears), then a crash and recovery (mount-time rebuild) — and requires
// the per-vregion counters and the free-words summary bitmap to equal a
// full recount at every checkpoint. This is the system-level half of the
// property test: every transition path the real allocator exercises must
// feed the index.
func TestFreeIndexConsistentUnderChurn(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	var snaps []uint64
	sys.ClientThread("churn", func(c *ClientCtx) {
		for round := 0; c.Alive() && round < 6; round++ {
			for i := 0; i < 150; i++ {
				c.Write(0, ino, FBN(c.Rand(2048)), 2)
			}
			// Rotate a two-deep snapshot ring so folds and reclaims both
			// happen against a populated summary map.
			snaps = append(snaps, c.SnapCreate(0))
			if len(snaps) > 2 {
				c.SnapDelete(0, snaps[0])
				snaps = snaps[1:]
			}
		}
	})
	sys.Run(5 * Second)
	verifyFreeIndexes(t, sys, "mid-churn")
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	verifyFreeIndexes(t, sys, "after flush")
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck after churn: %s", rep)
	}

	// Crash and recover: the mounted volumes rebuild their indexes word-wise
	// from media, and further churn keeps them consistent.
	sys.Crash()
	sys2, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	verifyFreeIndexes(t, sys2, "after recovery")
	sys2.ClientThread("churn2", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 300; i++ {
			c.Write(0, ino, FBN(c.Rand(2048)), 2)
		}
	})
	sys2.Run(2 * Second)
	if err := sys2.Flush(); err != nil {
		t.Fatal(err)
	}
	verifyFreeIndexes(t, sys2, "after post-recovery churn")
	if rep := sys2.Fsck(); !rep.OK() {
		t.Fatalf("fsck after recovery churn: %s", rep)
	}
}

// TestFsckCatchesFreeIndexCorruption injects drift into both levels of a
// live volume's free-space index, and into a region counter of the live
// aggregate's, and requires Fsck to flag each as IdxErrs.
func TestFsckCatchesFreeIndexCorruption(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	sys.ClientThread("writer", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 200; i++ {
			c.Write(0, ino, FBN(c.Rand(1024)), 2)
		}
	})
	sys.Run(2 * Second)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("baseline fsck: %s", rep)
	}

	idx := sys.m0().a.Volume(0).FreeIdx
	idx.CorruptRegionCounter(0, -7)
	if rep := sys.Fsck(); rep.IdxErrs == 0 || rep.OK() {
		t.Fatalf("fsck missed corrupted region counter: %s", rep)
	}
	idx.CorruptRegionCounter(0, 7)

	idx.CorruptFreeWord(3)
	if rep := sys.Fsck(); rep.IdxErrs == 0 || rep.OK() {
		t.Fatalf("fsck missed corrupted free-words bit: %s", rep)
	}
	idx.CorruptFreeWord(3)

	aggr := sys.m0().a.FreeIdx
	aggr.CorruptRegionCounter(5, 3)
	if rep := sys.Fsck(); rep.IdxErrs == 0 || rep.OK() {
		t.Fatalf("fsck missed corrupted aggregate AA counter: %s", rep)
	}
	aggr.CorruptRegionCounter(5, -3)

	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck after restoring corruption: %s", rep)
	}
}
