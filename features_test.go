package wafl

import (
	"testing"

	"wafl/internal/block"
)

func TestDeleteReclaimsSpace(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 4096)
	var deleted bool
	sys.ClientThread("life", func(c *ClientCtx) {
		for i := 0; i < 600; i += 4 {
			c.Write(0, ino, FBN(i), 4)
		}
	})
	sys.Run(500 * Millisecond)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	usedBefore := uint64(sys.cfg.DriveBlocks) // placeholder, replaced below
	usedBefore = sys.m0().a.Activemap.Used()

	sys.stopped = false
	sys.ClientThread("reaper", func(c *ClientCtx) {
		deleted = c.Delete(0, ino)
	})
	sys.Run(100 * Millisecond)
	if !deleted {
		t.Fatal("delete failed")
	}
	if sys.VerifyRead(0, ino, 0) != nil {
		t.Fatal("file readable after delete")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	usedAfter := sys.m0().a.Activemap.Used()
	// The file's ~600 L0 blocks plus indirects must have been reclaimed.
	if usedBefore-usedAfter < 600 {
		t.Fatalf("reclaimed only %d blocks", usedBefore-usedAfter)
	}
	rep := sys.Fsck()
	if !rep.OK() {
		t.Fatalf("fsck after delete: %s %v", rep, rep.Errors)
	}
	if rep.Files != 0 {
		t.Fatalf("fsck sees %d files after delete", rep.Files)
	}
}

func TestDeleteIsIdempotentAndGuardsResurrection(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 256)
	sys.ClientThread("w", func(c *ClientCtx) {
		c.Write(0, ino, 0, 2)
	})
	sys.Run(50 * Millisecond)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	sys.stopped = false
	var first, second bool
	sys.ClientThread("d", func(c *ClientCtx) {
		first = c.Delete(0, ino)
		second = c.Delete(0, ino) // before any CP clears the record
	})
	sys.Run(50 * Millisecond)
	if !first || second {
		t.Fatalf("delete results: first=%v second=%v, want true/false", first, second)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if !sys.Fsck().OK() {
		t.Fatal("fsck failed after double delete")
	}
}

func TestDeleteSurvivesCrashReplay(t *testing.T) {
	cfg := fullPayloadConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keep := sys.CreateFileDirect(0, 256)
	kill := sys.CreateFileDirect(0, 256)
	sys.ClientThread("setup", func(c *ClientCtx) {
		c.Write(0, keep, 0, 2)
		c.Write(0, kill, 0, 2)
	})
	sys.Run(100 * Millisecond)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	sys.stopped = false
	sys.ClientThread("deleter", func(c *ClientCtx) {
		c.Delete(0, kill)
	})
	sys.Run(20 * Millisecond)
	sys.Crash() // delete may only exist in NVRAM
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.VerifyRead(0, kill, 0) != nil {
		t.Fatal("deleted file resurrected by replay")
	}
	if err := rec.VerifyAgainst(0, keep, 0); err != nil {
		t.Fatal(err)
	}
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	rep := rec.Fsck()
	if !rep.OK() || rep.Files != 1 {
		t.Fatalf("post-recovery fsck: %s %v", rep, rep.Errors)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 1024)
	sys.ClientThread("w", func(c *ClientCtx) {
		for i := 0; i < 200; i += 4 {
			c.Write(0, ino, FBN(i), 4)
		}
	})
	sys.Run(300 * Millisecond)
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if !sys.Fsck().OK() {
		t.Fatal("baseline fsck should pass")
	}
	// Inject corruption: flip a used bit off in the in-memory activemap
	// and persist it via another CP — the block becomes referenced but
	// not marked used.
	f := sys.m0().a.Volume(0).LookupFile(ino)
	_, vbn, _ := f.Resolve(0, sys.m0().a)
	sys.m0().a.Activemap.Clear(uint64(vbn))
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	rep := sys.Fsck()
	if rep.OK() {
		t.Fatal("fsck missed an intentionally corrupted bitmap")
	}
	if rep.Missing == 0 {
		t.Fatalf("corruption classified wrong: %s", rep)
	}
}

func TestReadsReturnWrittenData(t *testing.T) {
	cfg := fullPayloadConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 1024)
	var readLat Duration
	sys.ClientThread("rw", func(c *ClientCtx) {
		c.Write(0, ino, 10, 4)
		readLat = c.Read(0, ino, 10, 4)
	})
	sys.Run(100 * Millisecond)
	if readLat == 0 {
		t.Fatal("read did not complete")
	}
	if err := sys.VerifyAgainst(0, ino, 10); err != nil {
		t.Fatal(err)
	}
}

func TestPostRecoveryColdReadIsTimed(t *testing.T) {
	cfg := fullPayloadConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 1024)
	sys.ClientThread("w", func(c *ClientCtx) {
		for i := 0; i < 64; i += 4 {
			c.Write(0, ino, FBN(i), 4)
		}
	})
	sys.Run(200 * Millisecond)
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var cold, warm Duration
	rec.ClientThread("reader", func(c *ClientCtx) {
		cold = c.Read(0, ino, 5, 1) // miss: must pay drive latency
		warm = c.Read(0, ino, 5, 1) // hit
	})
	rec.Run(100 * Millisecond)
	if cold <= warm {
		t.Fatalf("cold read (%v) should cost more than warm read (%v)", cold, warm)
	}
}

func TestStallAccountingUnderOverload(t *testing.T) {
	cfg := smallConfig()
	cfg.NVRAMHalfBytes = 256 << 10 // tiny log: constant back-to-back CPs
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 4096)
	for i := 0; i < 8; i++ {
		sys.ClientThread("w", func(c *ClientCtx) {
			j := 0
			for c.Alive() {
				c.Write(0, ino, FBN((j*8)%4000), 8)
				j++
			}
		})
	}
	res := sys.Measure(50*Millisecond, 200*Millisecond)
	if res.Stalls == 0 || res.StallTime == 0 {
		t.Fatalf("overload must stall clients: %s", res)
	}
	if res.LatP99 <= res.LatP50 {
		t.Fatalf("stalls should fatten the latency tail: p50=%v p99=%v", res.LatP50, res.LatP99)
	}
}

func TestDynamicTunerSamplesExposed(t *testing.T) {
	cfg := smallConfig()
	cfg.Allocator.Dynamic = true
	cfg.Allocator.InitialCleaners = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 4096)
	sys.ClientThread("w", func(c *ClientCtx) {
		j := 0
		for c.Alive() {
			c.Write(0, ino, FBN((j*8)%4000), 8)
			j++
		}
	})
	sys.Run(400 * Millisecond)
	if len(sys.TunerSamples()) == 0 {
		t.Fatal("no tuner samples recorded")
	}
	if sys.Stats().Cleaners < 1 {
		t.Fatal("tuner must keep at least one thread")
	}
}

func TestLooseAccountingMatchesGroundTruth(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 4096)
	sys.ClientThread("w", func(c *ClientCtx) {
		for i := 0; i < 500 && c.Alive(); i += 4 {
			c.Write(0, ino, FBN(i%2048), 4)
		}
	})
	sys.Run(300 * Millisecond)
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// After quiesce every token has flushed: the loose counter equals the
	// activemap's ground truth.
	if got, want := sys.Stats().AggrFree, int64(sys.m0().a.TotalFree()); got != want {
		t.Fatalf("loose counter %d != ground truth %d", got, want)
	}
}

func TestHierarchyRendering(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := sys.Hierarchy()
	for _, want := range []string{"Serial", "AggrVBN", "VolLogical", "Range"} {
		if !contains(out, want) {
			t.Fatalf("hierarchy missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAddressSpaceGuard: a pointer holds a VBN and a VVBN in 32 bits each,
// so a geometry is accepted one block short of block.AddrLimit and refused
// at it, in either space and whichever factor makes it up — an overflowing
// product too. NewSystem refuses before it builds any drive.
func TestAddressSpaceGuard(t *testing.T) {
	const limit = uint64(block.AddrLimit)
	ok := DefaultConfig()
	for _, c := range []struct {
		name               string
		groups, drives     int
		driveBlocks, vvbns uint64
		refused            bool
	}{
		{"default", ok.RAIDGroups, ok.DataDrives, ok.DriveBlocks, ok.VolumeBlocks, false},
		{"vbn one short", 1, 1, limit - 1, 1 << 17, false},
		{"vbn at limit", 1, 1, limit, 1 << 17, true},
		{"vbn product one short", 3, 5, (limit - 1) / 15, 1 << 17, false},
		{"vbn product at limit", 3, 5, limit / 15, 1 << 17, true},
		{"vbn product overflows", 1 << 20, 1 << 20, 1 << 30, 1 << 17, true},
		{"vvbn one short", 1, 1, 1 << 16, limit - 1, false},
		{"vvbn at limit", 1, 1, 1 << 16, limit, true},
	} {
		cfg := ok
		cfg.RAIDGroups, cfg.DataDrives, cfg.DriveBlocks, cfg.VolumeBlocks = c.groups, c.drives, c.driveBlocks, c.vvbns
		if err := checkAddressSpace(cfg); (err != nil) != c.refused {
			t.Errorf("%s: checkAddressSpace = %v, want refused %v", c.name, err, c.refused)
		}
	}
	// A geometry aggregate.New would take, at a size its drives could not
	// be built at: NewSystem must fail on the guard, before it builds one.
	for _, huge := range []func(*Config){
		func(c *Config) { c.DriveBlocks = 1 << 30 },
		func(c *Config) { c.VolumeBlocks = limit },
	} {
		cfg := smallConfig()
		huge(&cfg)
		want := checkAddressSpace(cfg)
		if want == nil {
			t.Fatalf("checkAddressSpace accepts %d x %d x %d blocks, %d volume blocks", cfg.RAIDGroups, cfg.DataDrives, cfg.DriveBlocks, cfg.VolumeBlocks)
		}
		if _, err := NewSystem(cfg); err == nil || err.Error() != want.Error() {
			t.Fatalf("NewSystem = %v, want the guard's %v", err, want)
		}
	}
}
