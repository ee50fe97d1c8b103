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
	t, _, err := rc.rows(t, []scenario{newScenario(nil, cfg, w)}, func(m, _ measurement) []string {
		r, in := m.res, m.res.Stats.Infra
		return []string{f0(r.OpsPerSec), f2(r.MBPerSec), ms(r.LatP50), ms(r.LatP99),
			fmt.Sprint(in.VFillWords), fmt.Sprint(in.VBucketsFilled),
			f2(wordsPerVBucket(in)), f2(r.Cores.Infra), fmt.Sprint(in.GetWaits)}
	})
	t.Notes = append(t.Notes,
		"both volumes ~82% occupied (active + snapshot-held) with a pinned base snapshot and a rotating 2-deep ring")
	return t, err
}

// wordsPerVBucket is the volume fill words charged per installed virtual
// bucket over a window's counters (0 when none was installed).
func wordsPerVBucket(in wafl.InfraCounters) float64 {
	if in.VBucketsFilled == 0 {
		return 0
	}
	return float64(in.VFillWords) / float64(in.VBucketsFilled)
}
