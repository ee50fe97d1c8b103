package workload

import (
	"testing"

	"wafl"
)

// smallCfg keeps workload tests fast.
func smallCfg() wafl.Config {
	cfg := wafl.DefaultConfig()
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
	cfg.Allocator.MaxCleaners = 3
	cfg.Allocator.InitialCleaners = 2
	return cfg
}

func runWorkload(t *testing.T, w interface{ Attach(*wafl.System) }) wafl.Results {
	t.Helper()
	sys, err := wafl.NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(sys)
	res := sys.Measure(50*wafl.Millisecond, 150*wafl.Millisecond)
	sys.Shutdown()
	return res
}

func TestSeqWriteProducesLoad(t *testing.T) {
	w := DefaultSeqWrite()
	w.Clients = 4
	w.Volumes = 2
	w.FileBlocks = 2048
	res := runWorkload(t, w)
	if res.Ops == 0 || res.Blocks == 0 {
		t.Fatal("no load produced")
	}
	if res.Blocks != res.Ops*uint64(w.OpBlocks) {
		t.Fatalf("blocks=%d ops=%d opblocks=%d", res.Blocks, res.Ops, w.OpBlocks)
	}
	if res.CPs == 0 {
		t.Fatal("write load must trigger CPs")
	}
	// Sequential layout should give a decent full-stripe rate even on this
	// tiny test aggregate, where every CP boundary strands partial
	// tetrises (the production-sized config measures ~85-95%).
	if res.FullStripe < 0.25 {
		t.Fatalf("full stripe = %.2f, expected higher for sequential", res.FullStripe)
	}
}

func TestSnapChurnRotatesSnapshots(t *testing.T) {
	w := DefaultSnapChurn()
	w.Clients = 4
	w.Volumes = 2
	w.FileBlocks = 2048
	w.MaxSnaps = 2
	w.SnapEvery = 4
	w.Think = wafl.Millisecond
	sys, err := wafl.NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(sys)
	res := sys.Measure(50*wafl.Millisecond, 250*wafl.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no load produced")
	}
	cp := sys.Stats().CP
	if cp.SnapsCreated == 0 {
		t.Fatal("churn created no snapshots")
	}
	if cp.SnapsDeleted == 0 {
		t.Fatal("ring never rotated: no snapshot deletes")
	}
	held := uint64(0)
	for v := 0; v < 2; v++ {
		held += sys.FreeSpaceBreakdown(v).SnapOnly
		if n := len(sys.SnapshotIDs(v)); n > w.MaxSnaps+1 {
			t.Fatalf("vol %d holds %d snapshots, ring size %d", v, n, w.MaxSnaps)
		}
	}
	if held == 0 {
		t.Fatal("no snapshot-held blocks under overwrite churn")
	}
	sys.Shutdown()
}

func TestRandWritePrefillAges(t *testing.T) {
	w := DefaultRandWrite()
	w.Clients = 4
	w.Volumes = 2
	w.FileBlocks = 2048
	sys, err := wafl.NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(sys) // prefill runs inside Attach
	// After aging, the files are fully populated and persisted.
	if sys.CPCount() == 0 {
		t.Fatal("prefill flush should have committed CPs")
	}
	free0 := sys.Stats().AggrFree
	res := sys.Measure(50*wafl.Millisecond, 150*wafl.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no random writes")
	}
	// Steady-state overwrites: net space use stays near flat.
	drift := free0 - sys.Stats().AggrFree
	if drift > 2000 || drift < -2000 {
		t.Fatalf("space drifted by %d blocks during pure overwrites", drift)
	}
	sys.Shutdown()
}

func TestOLTPMixesReadsAndWrites(t *testing.T) {
	w := DefaultOLTP()
	w.Clients = 4
	w.Volumes = 2
	w.FileBlocks = 4096
	res := runWorkload(t, w)
	if res.Ops == 0 {
		t.Fatal("no OLTP ops")
	}
	// With 60% writes of 2 blocks, written blocks < 2*ops.
	if res.Blocks >= res.Ops*2 {
		t.Fatalf("blocks=%d ops=%d: reads missing from the mix", res.Blocks, res.Ops)
	}
	if res.Blocks == 0 {
		t.Fatal("writes missing from the mix")
	}
}

func TestNFSMixManySmallFiles(t *testing.T) {
	w := DefaultNFSMix()
	w.Clients = 8
	w.Volumes = 2
	w.FilesPerV = 50
	res := runWorkload(t, w)
	if res.Ops == 0 {
		t.Fatal("no NFS ops")
	}
	// Metadata ops and reads mean blocks written per op is well below 2.
	if float64(res.Blocks) > 1.5*float64(res.Ops) {
		t.Fatalf("mix looks write-only: blocks=%d ops=%d", res.Blocks, res.Ops)
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	run := func() uint64 {
		sys, err := wafl.NewSystem(smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		w := DefaultOLTP()
		w.Clients = 4
		w.Volumes = 2
		w.FileBlocks = 2048
		w.Attach(sys)
		res := sys.Measure(50*wafl.Millisecond, 100*wafl.Millisecond)
		sys.Shutdown()
		return res.Ops
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic workload: %d vs %d ops", a, b)
	}
}
