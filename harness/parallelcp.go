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
			w.Configure(cfg)
			return w
		}},
	}
	var scs []scenario
	for _, w := range workloads {
		for i, mode := range []string{"serial", "parallel"} {
			cfg := rc.Base
			cfg.NVRAMHalfBytes = 2 << 20 // CP-bound: the log half fills fast
			cfg.Allocator.ParallelCP = i == 1
			attacher := w.attach(&cfg) // before cfg is passed on: it mutates it
			scs = append(scs, newScenario([]string{w.name, mode}, cfg, attacher))
		}
	}
	t, runs, err := rc.rows(t, scs, func(m, _ measurement) []string {
		r := m.res
		return []string{f0(r.OpsPerSec), f2(r.MBPerSec), ms(r.LatP99), fmt.Sprint(r.CPs),
			fmt.Sprintf("%.0fus", cpAvgUs(r)), fmt.Sprint(r.Stats.CP.BackToBack), fmt.Sprint(r.Stalls), ms(r.StallTime)}
	})
	for i := 0; i+1 < len(runs); i += 2 { // each workload's serial, then its parallel run
		s, p := runs[i].res, runs[i+1].res
		if cpAvgUs(p) > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: cp avg %.0fus -> %.0fus (%.2fx), stall time %.1fms -> %.1fms, back2back %d -> %d",
				runs[i].label[0], cpAvgUs(s), cpAvgUs(p), cpAvgUs(s)/cpAvgUs(p),
				s.StallTime.Micros()/1000, p.StallTime.Micros()/1000, s.Stats.CP.BackToBack, p.Stats.CP.BackToBack))
		}
	}
	return t, err
}

// cpAvgUs is a window's mean CP duration in microseconds (0 with no CP).
func cpAvgUs(r wafl.Results) float64 {
	if cp := r.Stats.CP; cp.CPs > 0 {
		return cp.TotalDuration.Micros() / float64(cp.CPs)
	}
	return 0
}
