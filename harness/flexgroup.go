package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// FlexgroupResult is one cluster width's measurement.
type FlexgroupResult struct {
	PerMember []wafl.Results // one window per member
	Speedup   float64        // ops/s relative to the first (baseline) width
}

// Flexgroup runs the cluster scaling sweep: the same per-member manyfile
// load w at each cluster width, so ideal scaling is ops/s proportional to
// the member count. The widths are 1, 2, 4, ... up to rc.Base.Members (1, 2
// and 4 when that is below 2), every member an rc.Base box. At each it builds
// a cluster, applies members x w.Clients clients over all its volumes,
// their files placed by the capacity-aware policy, and measures
// per-member and cluster-wide throughput over rc's warm-up and window.
// Returns the rendered table and the per-width results.
func Flexgroup(rc RunConfig, w workload.ManyFile) (Table, []FlexgroupResult, error) {
	tab := Table{
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
	var out []FlexgroupResult
	var base float64
	for _, n := range widths {
		c := rc.Base
		c.Members = n
		sys, err := wafl.NewSystem(c)
		if err != nil {
			return tab, nil, fmt.Errorf("flexgroup members=%d: %w", n, err)
		}
		workload.ManyFile{Clients: w.Clients * n, Volumes: c.Volumes * n, Placed: n > 1}.Attach(sys)
		sys.Run(rc.Warmup)
		res, parts := sys.MeasureMembers(0, rc.Window)
		sys.Shutdown()

		if base == 0 {
			base = res.OpsPerSec
		}
		speedup := 0.0
		if base > 0 {
			speedup = res.OpsPerSec / base
		}
		out = append(out, FlexgroupResult{PerMember: parts, Speedup: speedup})

		minOps, maxOps := parts[0].OpsPerSec, parts[0].OpsPerSec
		for _, p := range parts[1:] {
			if p.OpsPerSec < minOps {
				minOps = p.OpsPerSec
			}
			if p.OpsPerSec > maxOps {
				maxOps = p.OpsPerSec
			}
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", n), f0(res.OpsPerSec), fmt.Sprintf("%.2fx", speedup),
			f2(res.MBPerSec), us(res.LatP50), us(res.LatP99),
			fmt.Sprintf("%d", res.CPs), f0(minOps), f0(maxOps),
		})
	}
	tab.Notes = append(tab.Notes,
		"same per-member load at every width; ideal scaling = Nx the 1-member ops/s")
	return tab, out, nil
}
