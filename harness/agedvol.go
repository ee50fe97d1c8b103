package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// AgedVolume measures steady-state bucket fills on an aged, snapshotted
// volume — prefilled dense, fragmented by overwrite rounds under snapshot
// churn, with a pinned base snapshot keeping the fragmentation alive. The
// headline metric is volume fill words charged per installed virtual
// bucket: the simulated CPU the infrastructure burns scanning the free-space
// index for each bucket of allocatable VVBNs it delivers, which stays
// proportional to the blocks found however full the volume is.
func AgedVolume(rc RunConfig) (Table, error) {
	t := Table{
		ID:    "agedvol",
		Title: "Aged snapshotted volume: fill words per installed vbucket",
		Headers: []string{"ops/s", "MB/s", "lat p50", "lat p99",
			"vfillwords", "vbuckets", "words/vbucket", "infra cores", "getwaits"},
	}
	w := workload.DefaultAgedVol()
	cfg := rc.Base
	w.Configure(&cfg)
	// Attach prefills and ages in simulated time.
	res, _, err := rc.Measure(cfg, w)
	if err != nil {
		return t, err
	}
	in := res.Stats.Infra
	t.Rows = append(t.Rows, []string{
		f0(res.OpsPerSec), f2(res.MBPerSec), ms(res.LatP50), ms(res.LatP99),
		fmt.Sprintf("%d", in.VFillWords), fmt.Sprintf("%d", in.VBucketsFilled),
		f2(wordsPerVBucket(in)), f2(res.Cores.Infra), fmt.Sprintf("%d", in.GetWaits),
	})
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
