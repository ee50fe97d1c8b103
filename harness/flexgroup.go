package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// FlexgroupConfig parameterizes the cluster scaling experiment: the same
// per-member manyfile load is applied at each cluster width, so ideal
// scaling is ops/s proportional to the member count.
type FlexgroupConfig struct {
	// Base is the per-member system configuration; Base.Members is
	// overridden by each entry of MemberCounts.
	Base wafl.Config
	// MemberCounts lists the cluster widths swept (first entry is the
	// scaling baseline, conventionally 1).
	MemberCounts []int
	// ClientsPerMember, FilesPerClient, FileBlocks, OpBlocks shape the
	// manyfile load; the client count is ClientsPerMember x members, and
	// files are spread by the cluster's placement policy.
	ClientsPerMember int
	FilesPerClient   int
	FileBlocks       uint64
	OpBlocks         int
	Warmup, Window   wafl.Duration
}

// DefaultFlexgroup sizes the sweep for CI: 1/2/4 members under the
// metadata-heavy manyfile load (the workload whose CPs are dominated by
// per-volume metadata phases — the hardest one to scale).
func DefaultFlexgroup() FlexgroupConfig {
	return FlexgroupConfig{
		Base:             wafl.DefaultConfig(),
		MemberCounts:     []int{1, 2, 4},
		ClientsPerMember: 56,
		FilesPerClient:   16,
		FileBlocks:       64,
		OpBlocks:         1,
		Warmup:           100 * wafl.Millisecond,
		Window:           300 * wafl.Millisecond,
	}
}

// FlexgroupResult is one cluster width's measurement.
type FlexgroupResult struct {
	Members   int
	Res       wafl.Results   // cluster-wide window: PerMember's Stats folded
	PerMember []wafl.Results // one window per member
	Speedup   float64        // ops/s relative to the first (baseline) width
}

// Flexgroup runs the cluster scaling sweep: for each member count it builds
// a cluster, applies members x ClientsPerMember manyfile clients placed by
// the capacity-aware policy, and measures per-member and cluster-wide
// throughput. Returns the rendered table and the per-width results.
func Flexgroup(cfg FlexgroupConfig) (Table, []FlexgroupResult, error) {
	tab := Table{
		ID:    "flexgroup",
		Title: "FlexGroup cluster scaling: manyfile ops/s vs member count",
		Headers: []string{"members", "ops/s", "speedup", "MB/s", "lat-p50", "lat-p99",
			"cps", "member-min-ops/s", "member-max-ops/s"},
	}
	var out []FlexgroupResult
	var base float64
	for _, n := range cfg.MemberCounts {
		c := cfg.Base
		c.Members = n
		sys, err := wafl.NewSystem(c)
		if err != nil {
			return tab, nil, fmt.Errorf("flexgroup members=%d: %w", n, err)
		}
		w := workload.ManyFile{
			Clients:    cfg.ClientsPerMember * n,
			FilesPer:   cfg.FilesPerClient,
			OpBlocks:   cfg.OpBlocks,
			FileBlocks: cfg.FileBlocks,
			Volumes:    c.Volumes * n,
			Placed:     n > 1,
		}
		w.Attach(sys)
		sys.Run(cfg.Warmup)
		res, parts := sys.MeasureMembers(0, cfg.Window)
		sys.Shutdown()

		if base == 0 {
			base = res.OpsPerSec
		}
		speedup := 0.0
		if base > 0 {
			speedup = res.OpsPerSec / base
		}
		out = append(out, FlexgroupResult{Members: n, Res: res, PerMember: parts, Speedup: speedup})

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
