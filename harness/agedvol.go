package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// AgedVolume measures steady-state bucket fills on an aged, snapshotted
// volume — prefilled dense, fragmented by overwrite rounds under snapshot
// churn, with a pinned base snapshot keeping the fragmentation alive — and
// compares the legacy scan path (region recounts + word-by-word FindFree
// with per-bit summary rejection) against hierarchical free-space
// accounting (per-vregion counters + free-words summary bitmap). The
// headline metric is volume fill words charged per installed virtual
// bucket: the simulated CPU the infrastructure burns scanning bitmaps for
// each bucket of allocatable VVBNs it delivers.
func AgedVolume(rc RunConfig) (Table, error) {
	t := Table{
		ID:    "agedvol",
		Title: "Aged snapshotted volume: legacy bitmap scan vs hierarchical free accounting",
		Headers: []string{"mode", "ops/s", "MB/s", "lat p50", "lat p99",
			"vfillwords", "vbuckets", "words/vbucket", "infra cores", "getwaits"},
	}
	var perVB [2]float64 // fill words per installed vbucket, by mode

	w := workload.DefaultAgedVol()
	modes := []struct {
		name string
		hier bool
	}{
		{"legacy scan", false},
		{"hierarchical", true},
	}
	for i, m := range modes {
		cfg := rc.Base
		cfg.Volumes = w.Volumes
		cfg.VolumeBlocks = 1 << 18 // 8 vregions; aged to ~84% occupancy
		cfg.DriveBlocks = 131072   // physical headroom for the aged image
		cfg.Allocator.HierarchicalFree = m.hier
		res, _, err := Measure(cfg, w, rc.Warmup, rc.Window) // Attach prefills and ages in simulated time
		if err != nil {
			return t, err
		}
		in := res.Stats.Infra
		perVB[i] = wordsPerVBucket(in)
		t.Rows = append(t.Rows, []string{
			m.name, f0(res.OpsPerSec), f2(res.MBPerSec), ms(res.LatP50), ms(res.LatP99),
			fmt.Sprintf("%d", in.VFillWords), fmt.Sprintf("%d", in.VBucketsFilled),
			f2(perVB[i]), f2(res.Cores.Infra), fmt.Sprintf("%d", in.GetWaits),
		})
	}
	if perVB[1] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"fill words per installed vbucket: %.1f -> %.1f (%.1fx reduction)",
			perVB[0], perVB[1], perVB[0]/perVB[1]))
	}
	t.Notes = append(t.Notes,
		"both volumes ~82% occupied (active + snapshot-held) with a pinned base snapshot and a rotating 2-deep ring")
	return t, nil
}

// wordsPerVBucket is the volume fill words charged per installed virtual
// bucket over a window's counters (0 when none was installed).
func wordsPerVBucket(in wafl.InfraCounters) float64 {
	if in.VBucketsFilled == 0 {
		return 0
	}
	return float64(in.VFillWords) / float64(in.VBucketsFilled)
}
