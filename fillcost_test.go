package wafl_test

import (
	"testing"

	"wafl"
	"wafl/harness"
	"wafl/workload"
)

// TestAgedVolumeFillWordsBudget pins the cost shape the volumes' free-space
// index buys (DESIGN §9): a volume bucket fill is charged for the bitmap
// words it examines, and on a volume aged past 80% occupancy under a pinned
// snapshot it may charge at most 8 per installed vbucket. The index's fills
// skip exhausted words and already exclude snapshot-held VVBNs, so the
// figure follows the blocks found (3.7 in agedvol's table); a fill that
// walks the activemap and checks the summary map per candidate keeps
// returning and rejecting held blocks, and charges several times the budget.
// Words are simulated counts, deterministic for the seed.
func TestAgedVolumeFillWordsBudget(t *testing.T) {
	const budget = 8
	w := workload.DefaultAgedVol()
	w.Volumes, w.FilesPerV, w.Clients = 1, 4, 24
	cfg := wafl.DefaultConfig()
	cfg.Volumes = w.Volumes
	cfg.VolumeBlocks = 1 << 17 // 4 vregions; 75% prefilled, aged to ~86%
	cfg.DriveBlocks = 65536
	res, sys, err := harness.RunConfig{Warmup: 20 * wafl.Millisecond, Window: 50 * wafl.Millisecond}.Measure(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	fs := sys.FreeSpaceBreakdown(0)
	t.Logf("volume %d/%d blocks allocated or snapshot-held", fs.Total-fs.Free, fs.Total)
	if fs.Free*5 > fs.Total {
		t.Fatalf("volume is %d/%d free: not the aged volume the budget is for", fs.Free, fs.Total)
	}
	in := res.Stats.Infra
	if in.VBucketsFilled == 0 {
		t.Fatal("no vbucket installed in the window")
	}
	perVB := float64(in.VFillWords) / float64(in.VBucketsFilled)
	t.Logf("%.2f fill words per installed vbucket (%d words, %d vbuckets)", perVB, in.VFillWords, in.VBucketsFilled)
	if perVB > budget {
		t.Fatalf("volume fills charge %.2f words per installed vbucket, budget %d", perVB, budget)
	}
}
