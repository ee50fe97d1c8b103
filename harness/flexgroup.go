package harness

import (
	"fmt"
	"math"

	"wafl/workload"
)

// flexgroup runs the cluster scaling sweep: the same per-member manyfile
// load w at each cluster width, so ideal scaling is ops/s proportional to
// the member count. The widths are 1, 2, 4, ... up to rc.Base.Members (1, 2
// and 4 when that is below 2), every member an rc.Base box. At each it builds
// a cluster, applies members x w.Clients clients over all its volumes,
// their files placed by the capacity-aware policy, and measures
// per-member and cluster-wide throughput over rc's warm-up and window.
// Returns the rendered table and one measurement per width.
func flexgroup(rc RunConfig, w workload.ManyFile) (Table, []measurement, error) {
	t := Table{
		ID:    "flexgroup",
		Title: "FlexGroup cluster scaling: manyfile ops/s vs member count",
		Headers: []string{"members", "ops/s", "speedup", "MB/s", "lat-p50", "lat-p99",
			"cps", "member-min-ops/s", "member-max-ops/s"},
	}
	widths := []int{1, 2, 4}
	if rc.Base.Members >= 2 {
		widths = nil
		for n := 1; n <= rc.Base.Members; n *= 2 {
			widths = append(widths, n)
		}
	}
	var scs []scenario
	for _, n := range widths {
		cfg := rc.Base
		cfg.Members = n
		load := workload.ManyFile{Clients: w.Clients * n, Volumes: cfg.Volumes * n, Placed: n > 1}
		scs = append(scs, newScenario([]string{fmt.Sprint(n)}, cfg, load))
	}
	t, runs, err := rc.rows(t, scs, func(m, base measurement) []string {
		r := m.res
		speedup := 0.0
		if base.res.OpsPerSec > 0 {
			speedup = r.OpsPerSec / base.res.OpsPerSec
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range m.members {
			lo, hi = min(lo, p.OpsPerSec), max(hi, p.OpsPerSec)
		}
		return []string{f0(r.OpsPerSec), fmt.Sprintf("%.2fx", speedup), f2(r.MBPerSec), us(r.LatP50), us(r.LatP99),
			fmt.Sprint(r.CPs), f0(lo), f0(hi)}
	})
	t.Notes = append(t.Notes,
		"same per-member load at every width; ideal scaling = Nx the 1-member ops/s")
	return t, runs, err
}
