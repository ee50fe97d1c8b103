package wafl

import (
	"fmt"
	"testing"
)

// smallConfig returns a fast configuration for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.RAIDGroups = 2
	cfg.DataDrives = 3
	cfg.DriveBlocks = 16384
	cfg.AAStripes = 1024
	cfg.Volumes = 2
	cfg.VolumeBlocks = 1 << 15
	cfg.NVRAMHalfBytes = 2 << 20
	cfg.StripesPerVolume = 8
	cfg.RangesPerVBN = 4
	cfg.Allocator.MaxCleaners = 4
	cfg.Allocator.InitialCleaners = 2
	return cfg
}

// TestReadMissOfBlockInFlight reads the blocks it overwrites through a buffer
// cache far smaller than the range. A miss resolves the in-memory tree,
// which names a block's new location as soon as the running CP cleans it, so
// some misses read a location whose write has not landed: nothing there, or
// the stale image of a block freed earlier. The resident buffer holds the
// content, and the read must not call the block lost.
func TestReadMissOfBlockInFlight(t *testing.T) {
	cfg := smallConfig()
	cfg.BCacheBlocks = 64
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	const span = 2048
	inos := make([]uint64, cfg.Volumes)
	for vol := range inos {
		inos[vol] = sys.CreateFileDirect(vol, span)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	for vol, ino := range inos {
		sys.ClientThread(fmt.Sprintf("rw%d", vol), func(c *ClientCtx) {
			for c.Alive() {
				c.Write(vol, ino, FBN(c.Rand(span)), 2)
				c.Read(vol, ino, FBN(c.Rand(span)), 1)
			}
		})
	}
	res := sys.Measure(0, 100*Millisecond)
	t.Logf("%d ops, %d CPs, %d cache misses, %d images forgotten",
		res.Ops, res.CPs, res.Stats.BCache.Misses, res.Stats.Drives.Forgotten)
	if res.CPs == 0 || res.Stats.BCache.Misses == 0 || res.Stats.Drives.Forgotten == 0 {
		t.Fatalf("the window ran %d CPs, %d cache misses and forgot %d images; want all three",
			res.CPs, res.Stats.BCache.Misses, res.Stats.Drives.Forgotten)
	}
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("%s %v", rep, rep.Errors)
	}
}

func TestSmokeSequentialWrites(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 1<<14)
	sys.ClientThread("writer", func(c *ClientCtx) {
		i := 0
		for c.Alive() {
			c.Write(0, ino, FBN((i*8)%8192), 8)
			i++
		}
	})
	res := sys.Measure(50*Millisecond, 200*Millisecond)
	t.Logf("results: %s", res)
	t.Logf("window counters:\n%s", res.Stats)
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.CPs == 0 {
		t.Fatal("no consistency points ran")
	}
	if res.Cores.Cleaner == 0 || res.Cores.Infra == 0 {
		t.Fatalf("no allocator work measured: %+v", res.Cores)
	}
}
