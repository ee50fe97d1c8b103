package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// ParallelCP measures the tentpole of parallel consistency points: the same
// workload run with the serial CP engine and with per-volume CP phases
// fanned across the Volume affinities. NVRAM is shrunk so the CP cadence is
// the bottleneck — client writes stall on log-half exhaustion whenever the
// CP tail is too slow — which makes CP duration directly visible as client
// NVRAM-stall time and back-to-back CP counts.
func ParallelCP(rc RunConfig) (Table, error) {
	t := Table{
		ID:    "parallelcp",
		Title: "Parallel vs serial consistency points under NVRAM pressure",
		Headers: []string{"workload", "mode", "ops/s", "MB/s", "lat p99",
			"cps", "cp avg", "back2back", "stalls", "stall time"},
	}
	workloads := []struct {
		name   string
		attach func(cfg *wafl.Config) Attacher // sizes cfg for the workload it returns
	}{
		{"manyfile", func(cfg *wafl.Config) Attacher {
			w := workload.DefaultManyFile()
			cfg.Volumes = w.Volumes
			return w
		}},
		{"randwrite", func(cfg *wafl.Config) Attacher {
			w := workload.DefaultRandWrite()
			cfg.Volumes = w.Volumes
			return w
		}},
		{"agedvol", func(cfg *wafl.Config) Attacher {
			w := workload.DefaultAgedVol()
			cfg.Volumes = w.Volumes
			cfg.VolumeBlocks = 1 << 18 // 8 vregions; aged to ~84% occupancy
			cfg.DriveBlocks = 131072   // physical headroom for the aged image
			return w
		}},
	}
	modes := []struct {
		name     string
		parallel bool
	}{
		{"serial", false},
		{"parallel", true},
	}
	for _, w := range workloads {
		var cpAvgUs, stallMs [2]float64 // by mode
		var b2b [2]uint64
		for i, m := range modes {
			cfg := rc.Base
			cfg.NVRAMHalfBytes = 2 << 20 // CP-bound: the log half fills fast
			cfg.Allocator.ParallelCP = m.parallel
			attacher := w.attach(&cfg) // before cfg is passed on: it mutates it
			res, _, err := Measure(cfg, attacher, rc.Warmup, rc.Window)
			if err != nil {
				return t, err
			}
			if cp := res.Stats.CP; cp.CPs > 0 {
				cpAvgUs[i] = cp.TotalDuration.Micros() / float64(cp.CPs)
			}
			stallMs[i] = res.StallTime.Micros() / 1000
			b2b[i] = res.Stats.CP.BackToBack
			t.Rows = append(t.Rows, []string{
				w.name, m.name, f0(res.OpsPerSec), f2(res.MBPerSec), ms(res.LatP99),
				fmt.Sprintf("%d", res.CPs), fmt.Sprintf("%.0fus", cpAvgUs[i]),
				fmt.Sprintf("%d", b2b[i]),
				fmt.Sprintf("%d", res.Stalls), ms(res.StallTime),
			})
		}
		if cpAvgUs[1] > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: cp avg %.0fus -> %.0fus (%.2fx), stall time %.1fms -> %.1fms, back2back %d -> %d",
				w.name, cpAvgUs[0], cpAvgUs[1], cpAvgUs[0]/cpAvgUs[1],
				stallMs[0], stallMs[1], b2b[0], b2b[1]))
		}
	}
	return t, nil
}
