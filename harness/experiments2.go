package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// cleanerConfigs returns the Fig 8 / Fig 9 thread configurations: static
// 1..max plus dynamic.
type cleanerConfig struct {
	Name    string
	Static  int // 0 => dynamic
	Max     int
	Dynamic bool
}

func cleanerConfigs(max int) []cleanerConfig {
	var out []cleanerConfig
	for n := 1; n <= max; n++ {
		out = append(out, cleanerConfig{Name: fmt.Sprintf("%d threads", n), Static: n, Max: n})
	}
	out = append(out, cleanerConfig{Name: "dynamic", Max: max, Dynamic: true})
	return out
}

func (cc cleanerConfig) apply(cfg *wafl.Config) {
	cfg.Allocator.Dynamic = cc.Dynamic
	cfg.Allocator.MaxCleaners = cc.Max
	if cc.Dynamic {
		cfg.Allocator.InitialCleaners = 1
	} else {
		cfg.Allocator.InitialCleaners = cc.Static
	}
}

// Fig8 reproduces Figure 8: the OLTP benchmark on the Flash Pool system
// with 1..4 static cleaner threads and dynamic tuning, reporting peak-load
// throughput and off-peak ("knee") latency. Paper shape: two static
// threads beat one on both metrics; more than two degrade (-3% peak
// throughput, higher latency); dynamic matches or beats the best static.
func Fig8(rc RunConfig) (Table, error) {
	base := rc.Base
	base.Drives = wafl.FlashPool

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
	var baseOps float64
	var baseLat wafl.Duration
	for _, cc := range cleanerConfigs(4) {
		cfgPeak := base
		cc.apply(&cfgPeak)
		// OLTP LUN cleaning parallelism on this testbed equals the volume
		// count (2): per-inode splitting is not in play (§V-C's feature
		// targets single-file hotspots, not steady OLTP).
		cfgPeak.Allocator.SplitLargeFiles = false
		resPeak, _, err := rc.Measure(cfgPeak, peak)
		if err != nil {
			return Table{}, err
		}
		cfgKnee := base
		cc.apply(&cfgKnee)
		cfgKnee.Allocator.SplitLargeFiles = false
		resKnee, _, err := rc.Measure(cfgKnee, knee)
		if err != nil {
			return Table{}, err
		}
		if baseOps == 0 {
			baseOps = resPeak.OpsPerSec
			baseLat = resKnee.LatAvg
		}
		t.Rows = append(t.Rows, []string{
			cc.Name, f0(resPeak.OpsPerSec), pct(resPeak.OpsPerSec, baseOps),
			us(resKnee.LatAvg), pct(float64(resKnee.LatAvg), float64(baseLat)),
		})
	}
	t.Notes = append(t.Notes, "paper: 2 static threads optimal; >2 adds latency and -3% throughput; dynamic best overall")
	return t, nil
}

// Fig9 reproduces Figure 9: sequential-write throughput vs latency at
// increasing client load for 1..4 static cleaner threads and dynamic
// tuning. Paper shape: 4 threads win peak throughput, 3 threads have lower
// off-peak latency, and dynamic tuning traces the lower envelope.
func Fig9(rc RunConfig) (Table, error) {
	loads := []int{4, 8, 16, 24}
	t := Table{
		ID:      "Fig9",
		Title:   "Sequential write: throughput vs latency at rising load",
		Headers: []string{"config", "clients", "MB/s", "avg latency"},
	}
	for _, cc := range cleanerConfigs(4) {
		for _, clients := range loads {
			cfg := rc.Base
			cc.apply(&cfg)
			w := workload.DefaultSeqWrite()
			w.Clients = clients
			res, _, err := rc.Measure(cfg, w)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{cc.Name, fmt.Sprintf("%d", clients), f2(res.MBPerSec), us(res.LatAvg)})
		}
	}
	t.Notes = append(t.Notes, "paper: peak with 4 threads, lower off-peak latency with 3, dynamic ≥ both")
	return t, nil
}

// BatchedCleaning reproduces the §V-C in-text result: the NFSv3 mix on SAS
// drives with and without batched inode cleaning. Paper: 21.2K -> 22.0K
// ops/s (+3.8%) and latency 6.7ms -> 6.5ms.
func BatchedCleaning(rc RunConfig) (Table, error) {
	base := rc.Base
	base.Drives = wafl.HDD
	// The SAS testbed spreads load over a shelf of spindles: four RAID
	// groups, so drive bandwidth is not the CP bottleneck.
	base.RAIDGroups = 4
	base.DriveBlocks = 32768
	t := Table{
		ID:      "V-C",
		Title:   "NFSv3 mix (SAS): batched inode cleaning",
		Headers: []string{"batching", "ops/s", "rel", "avg latency", "rel", "jobs", "batches"},
	}
	var baseOps float64
	var baseLat wafl.Duration
	for _, batching := range []bool{false, true} {
		cfg := base
		cfg.Allocator.BatchedCleaning = batching
		// Measure at saturation (no think time): throughput is CP-drain
		// bound, which is where per-inode message overhead shows.
		w := workload.DefaultNFSMix()
		w.Think = 0
		w.FilesPerV = 800
		res, sys, err := rc.Measure(cfg, w)
		if err != nil {
			return Table{}, err
		}
		if !batching {
			baseOps = res.OpsPerSec
			baseLat = res.LatAvg
		}
		name := "off"
		if batching {
			name = "on"
		}
		pool := sys.Stats().Pool // cumulative: jobs equal batches unless batching merged some
		t.Rows = append(t.Rows, []string{
			name, f0(res.OpsPerSec), pct(res.OpsPerSec, baseOps),
			us(res.LatAvg), pct(float64(res.LatAvg), float64(baseLat)),
			fmt.Sprintf("%d", pool.JobsRun), fmt.Sprintf("%d", pool.BatchesRun),
		})
	}
	t.Notes = append(t.Notes, "paper: +3.8% ops/s, latency 6.7ms -> 6.5ms")
	return t, nil
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
	run := func(name, setting string, mut func(*wafl.Config)) error {
		cfg := rc.Base
		mut(&cfg)
		res, _, err := rc.Measure(cfg, workload.DefaultSeqWrite())
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			name, setting, f0(res.OpsPerSec), f0(res.FullStripe * 100), fmt.Sprint(res.Stats.Infra.GetWaits),
		})
		return nil
	}
	for _, chunk := range []int{1, 8, 64, 256} {
		if err := run("bucket-size", fmt.Sprintf("%d blocks", chunk), func(c *wafl.Config) {
			c.Allocator.ChunkBlocks = chunk
		}); err != nil {
			return Table{}, err
		}
	}
	for _, p := range []wafl.AAPolicy{wafl.AAMostFree, wafl.AAFirstFit, wafl.AARoundRobin} {
		p := p
		if err := run("aa-policy", p.String(), func(c *wafl.Config) {
			c.Allocator.AASelection = p
		}); err != nil {
			return Table{}, err
		}
	}
	for _, loose := range []bool{true, false} {
		if err := run("loose-accounting", fmt.Sprintf("%v", loose), func(c *wafl.Config) {
			c.Allocator.LooseAccounting = loose
		}); err != nil {
			return Table{}, err
		}
	}
	for _, eq := range []bool{true, false} {
		if err := run("equal-progress", fmt.Sprintf("%v", eq), func(c *wafl.Config) {
			c.Allocator.EqualProgress = eq
		}); err != nil {
			return Table{}, err
		}
	}
	return t, nil
}
