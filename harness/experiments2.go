package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// cleanerSettings returns the Fig 8 / Fig 9 cleaner-thread settings of base,
// as scenarios without a workload: 1 to 4 static threads, then the dynamic
// tuner starting from one thread with up to four.
func (rc RunConfig) cleanerSettings(base wafl.Config) []scenario {
	var scs []scenario
	for n := 1; n <= 4; n++ {
		scs = append(scs, newScenario([]string{fmt.Sprintf("%d threads", n)}, withCleaners(base, n), nil))
	}
	dyn := base
	dyn.Allocator.Dynamic, dyn.Allocator.InitialCleaners, dyn.Allocator.MaxCleaners = true, 1, 4
	return append(scs, newScenario([]string{"dynamic"}, dyn, nil))
}

// Fig8 reproduces Figure 8: the OLTP benchmark on the Flash Pool system
// with 1..4 static cleaner threads and dynamic tuning, reporting peak-load
// throughput and off-peak ("knee") latency. Paper shape: two static
// threads beat one on both metrics; more than two degrade (-3% peak
// throughput, higher latency); dynamic matches or beats the best static.
func Fig8(rc RunConfig) (Table, error) {
	base := rc.Base
	base.Drives = wafl.FlashPool
	// OLTP LUN cleaning parallelism on this testbed equals the volume count
	// (2): per-inode splitting is not in play (§V-C's feature targets
	// single-file hotspots, not steady OLTP).
	base.Allocator.SplitLargeFiles = false

	peak := workload.DefaultOLTP()
	peak.Clients = 80
	peak.Think = 0

	knee := workload.DefaultOLTP()
	knee.Clients = 60

	t := Table{
		ID:      "Fig8",
		Title:   "OLTP (Flash Pool): peak throughput & knee latency vs cleaner threads",
		Headers: []string{"cleaners", "peak ops/s", "rel", "knee latency", "rel"},
	}
	var scs []scenario // each setting's peak, then its knee
	for _, sc := range rc.cleanerSettings(base) {
		for _, w := range []Attacher{peak, knee} {
			sc.work = w
			scs = append(scs, sc)
		}
	}
	runs, err := rc.runAll(scs)
	for i := 0; i < len(runs); i += 2 {
		p, k := runs[i].res, runs[i+1].res
		t.Rows = append(t.Rows, []string{
			runs[i].label[0], f0(p.OpsPerSec), pct(p.OpsPerSec, runs[0].res.OpsPerSec),
			us(k.LatAvg), pct(float64(k.LatAvg), float64(runs[1].res.LatAvg)),
		})
	}
	t.Notes = append(t.Notes, "paper: 2 static threads optimal; >2 adds latency and -3% throughput; dynamic best overall")
	return t, err
}

// Fig9 reproduces Figure 9: sequential-write throughput vs latency at
// increasing client load for 1..4 static cleaner threads and dynamic
// tuning. Paper shape: 4 threads win peak throughput, 3 threads have lower
// off-peak latency, and dynamic tuning traces the lower envelope.
func Fig9(rc RunConfig) (Table, error) {
	t := Table{
		ID:      "Fig9",
		Title:   "Sequential write: throughput vs latency at rising load",
		Headers: []string{"config", "clients", "MB/s", "avg latency"},
	}
	var scs []scenario
	for _, sc := range rc.cleanerSettings(rc.Base) {
		for _, clients := range []int{4, 8, 16, 24} {
			w := workload.DefaultSeqWrite()
			w.Clients = clients
			sc.label, sc.work = []string{sc.label[0], fmt.Sprint(clients)}, w
			scs = append(scs, sc)
		}
	}
	t, _, err := rc.rows(t, scs, func(m, _ measurement) []string {
		return []string{f2(m.res.MBPerSec), us(m.res.LatAvg)}
	})
	t.Notes = append(t.Notes, "paper: peak with 4 threads, lower off-peak latency with 3, dynamic ≥ both")
	return t, err
}

// BatchedCleaning reproduces the §V-C in-text result: the NFSv3 mix on SAS
// drives with and without batched inode cleaning. Paper: 21.2K -> 22.0K
// ops/s (+3.8%) and latency 6.7ms -> 6.5ms.
func BatchedCleaning(rc RunConfig) (Table, error) {
	sas := rc.Base
	sas.Drives = wafl.HDD
	// The SAS testbed spreads load over a shelf of spindles: four RAID
	// groups, so drive bandwidth is not the CP bottleneck.
	sas.RAIDGroups = 4
	sas.DriveBlocks = 32768
	// Measure at saturation (no think time): throughput is CP-drain
	// bound, which is where per-inode message overhead shows.
	w := workload.DefaultNFSMix()
	w.Think = 0
	w.FilesPerV = 800
	t := Table{
		ID:      "V-C",
		Title:   "NFSv3 mix (SAS): batched inode cleaning",
		Headers: []string{"batching", "ops/s", "rel", "avg latency", "rel", "jobs", "batches"},
	}
	var scs []scenario
	for i, label := range []string{"off", "on"} {
		cfg := sas
		cfg.Allocator.BatchedCleaning = i == 1
		scs = append(scs, newScenario([]string{label}, cfg, w))
	}
	t, _, err := rc.rows(t, scs, func(m, base measurement) []string {
		r := m.res
		pool := m.sys.Stats().Pool // cumulative: jobs equal batches unless batching merged some
		return []string{f0(r.OpsPerSec), pct(r.OpsPerSec, base.res.OpsPerSec),
			us(r.LatAvg), pct(float64(r.LatAvg), float64(base.res.LatAvg)),
			fmt.Sprint(pool.JobsRun), fmt.Sprint(pool.BatchesRun)}
	})
	t.Notes = append(t.Notes, "paper: +3.8% ops/s, latency 6.7ms -> 6.5ms")
	return t, err
}

// Ablations measures the design choices §IV calls out: bucket (chunk)
// size, AA selection policy, loose accounting, and equal-progress bucket
// insertion.
func Ablations(rc RunConfig) (Table, error) {
	t := Table{
		ID:      "Ablations",
		Title:   "Design-choice ablations (sequential write, White Alligator config)",
		Headers: []string{"ablation", "setting", "ops/s", "full-stripe%", "get-waits"},
	}
	var scs []scenario
	ablate := func(name string, setting any, set func(*wafl.Config)) {
		cfg := rc.Base
		set(&cfg)
		scs = append(scs, newScenario([]string{name, fmt.Sprint(setting)}, cfg, workload.DefaultSeqWrite()))
	}
	for _, chunk := range []int{1, 8, 64, 256} {
		ablate("bucket-size", fmt.Sprintf("%d blocks", chunk), func(c *wafl.Config) { c.Allocator.ChunkBlocks = chunk })
	}
	for _, p := range []wafl.AAPolicy{wafl.AAMostFree, wafl.AAFirstFit, wafl.AARoundRobin} {
		ablate("aa-policy", p, func(c *wafl.Config) { c.Allocator.AASelection = p })
	}
	for _, loose := range []bool{true, false} {
		ablate("loose-accounting", loose, func(c *wafl.Config) { c.Allocator.LooseAccounting = loose })
	}
	for _, eq := range []bool{true, false} {
		ablate("equal-progress", eq, func(c *wafl.Config) { c.Allocator.EqualProgress = eq })
	}
	t, _, err := rc.rows(t, scs, func(m, _ measurement) []string {
		return []string{f0(m.res.OpsPerSec), f0(m.res.FullStripe * 100), fmt.Sprint(m.res.Stats.Infra.GetWaits)}
	})
	return t, err
}
