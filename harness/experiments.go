package harness

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// Permutation names one {cleaner, infrastructure} parallelization setting
// of the §V-A instrumented kernels.
type Permutation struct {
	Name          string
	InfraParallel bool
	Cleaners      int
}

// permutations returns the four Fig 4 / Fig 7 configurations.
func permutations(parallelCleaners int) []Permutation {
	return []Permutation{
		{"serialized (baseline)", false, 1},
		{"+parallel infra", true, 1},
		{"+parallel cleaners", false, parallelCleaners},
		{"White Alligator (both)", true, parallelCleaners},
	}
}

// PermutationResult pairs a permutation with its measurement.
type PermutationResult struct {
	Permutation
	Res wafl.Results
}

// RunPermutations measures a workload under the four parallelization
// permutations.
func RunPermutations(rc RunConfig, mk func() Attacher, parallelCleaners int) ([]PermutationResult, error) {
	var out []PermutationResult
	for _, p := range permutations(parallelCleaners) {
		cfg := rc.Base
		cfg.Allocator.InfraParallel = p.InfraParallel
		cfg.Allocator.InitialCleaners = p.Cleaners
		cfg.Allocator.MaxCleaners = p.Cleaners
		cfg.Allocator.Dynamic = false
		res, _, err := Measure(cfg, mk(), rc.Warmup, rc.Window)
		if err != nil {
			return nil, err
		}
		out = append(out, PermutationResult{p, res})
	}
	return out, nil
}

// permTable renders permutation results in the Fig 4 / Fig 7 format:
// relative throughput plus write-allocation core usage.
func permTable(id, title string, prs []PermutationResult) Table {
	t := Table{
		ID:    id,
		Title: title,
		Headers: []string{"configuration", "ops/s", "rel-throughput", "cleaner-cores", "infra-cores",
			"walloc-cores", "total-cores"},
	}
	base := prs[0].Res.OpsPerSec
	for _, pr := range prs {
		t.Rows = append(t.Rows, []string{
			pr.Name,
			f0(pr.Res.OpsPerSec),
			pct(pr.Res.OpsPerSec, base),
			f2(pr.Res.Cores.Cleaner),
			f2(pr.Res.Cores.Infra),
			f2(pr.Res.Cores.WriteAllocation()),
			f2(pr.Res.Cores.Total()),
		})
	}
	return t
}

// Fig4 reproduces Figure 4: sequential write under the four permutations.
// Paper shape: +7% (infra only), +82% (cleaners only), +274% (both);
// ~6.2 write-allocation cores at full parallelism.
func Fig4(rc RunConfig) (Table, error) {
	prs, err := RunPermutations(rc, func() Attacher { return workload.DefaultSeqWrite() }, rc.Cleaners)
	if err != nil {
		return Table{}, err
	}
	t := permTable("Fig4", "Sequential write: throughput & core usage by parallelization", prs)
	t.Notes = append(t.Notes, "paper: +7% infra-only, +82% cleaners-only, +274% both")
	return t, nil
}

// Fig7 reproduces Figure 7: random write under the four permutations.
// Paper shape (inverted vs Fig 4): +25% infra-only, +14% cleaners-only,
// +50% both.
func Fig7(rc RunConfig) (Table, error) {
	prs, err := RunPermutations(rc, func() Attacher { return workload.DefaultRandWrite() }, rc.Cleaners)
	if err != nil {
		return Table{}, err
	}
	t := permTable("Fig7", "Random write: throughput & core usage by parallelization", prs)
	t.Notes = append(t.Notes, "paper: +25% infra-only, +14% cleaners-only, +50% both")
	return t, nil
}

// Fig5 reproduces Figure 5: sequential-write throughput and cleaner core
// usage as the (static) cleaner-thread count rises from 1 to 6, with the
// infrastructure parallel. Paper shape: near-linear until CPU saturation.
func Fig5(rc RunConfig) (Table, error) {
	t := Table{
		ID:      "Fig5",
		Title:   "Sequential write vs number of cleaner threads (parallel infra)",
		Headers: []string{"cleaners", "ops/s", "rel", "cleaner-cores", "infra-cores", "total-cores"},
	}
	var base float64
	for n := 1; n <= 6; n++ {
		cfg := rc.Base
		cfg.Allocator.InfraParallel = true
		cfg.Allocator.InitialCleaners = n
		cfg.Allocator.MaxCleaners = n
		cfg.Allocator.Dynamic = false
		res, _, err := Measure(cfg, workload.DefaultSeqWrite(), rc.Warmup, rc.Window)
		if err != nil {
			return Table{}, err
		}
		if n == 1 {
			base = res.OpsPerSec
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), f0(res.OpsPerSec), pct(res.OpsPerSec, base),
			f2(res.Cores.Cleaner), f2(res.Cores.Infra), f2(res.Cores.Total()),
		})
	}
	return t, nil
}

// Fig6 reproduces Figure 6: infrastructure core usage and throughput with
// and without infrastructure parallelization, cleaners parallel. Paper:
// 0.94 -> 2.35 infra cores, +106% throughput.
func Fig6(rc RunConfig) (Table, error) {
	t := Table{
		ID:      "Fig6",
		Title:   "Infrastructure parallelization (cleaners parallel)",
		Headers: []string{"infrastructure", "ops/s", "rel", "infra-cores", "total-cores"},
	}
	var base float64
	for _, par := range []bool{false, true} {
		cfg := rc.Base
		cfg.Allocator.InfraParallel = par
		cfg.Allocator.InitialCleaners = rc.Cleaners
		cfg.Allocator.MaxCleaners = rc.Cleaners
		cfg.Allocator.Dynamic = false
		res, _, err := Measure(cfg, workload.DefaultSeqWrite(), rc.Warmup, rc.Window)
		if err != nil {
			return Table{}, err
		}
		if !par {
			base = res.OpsPerSec
		}
		name := "serialized"
		if par {
			name = "parallel"
		}
		t.Rows = append(t.Rows, []string{
			name, f0(res.OpsPerSec), pct(res.OpsPerSec, base),
			f2(res.Cores.Infra), f2(res.Cores.Total()),
		})
	}
	t.Notes = append(t.Notes, "paper: infra cores 0.94 -> 2.35, throughput +106%")
	return t, nil
}
