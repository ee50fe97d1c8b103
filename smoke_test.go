package wafl

import (
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
