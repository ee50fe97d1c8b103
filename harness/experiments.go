package harness

import (
	"fmt"

	"wafl/workload"
)

// permutations returns the four Fig 4 / Fig 7 scenarios: w under each
// {infrastructure, cleaner} parallelization of the §V-A instrumented kernels,
// rc.Cleaners cleaner threads where the cleaners are parallel.
func (rc RunConfig) permutations(w Attacher) []scenario {
	perm := func(label string, infra bool, cleaners int) scenario {
		cfg := withCleaners(rc.Base, cleaners)
		cfg.Allocator.InfraParallel = infra
		return newScenario([]string{label}, cfg, w)
	}
	return []scenario{
		perm("serialized (baseline)", false, 1),
		perm("+parallel infra", true, 1),
		perm("+parallel cleaners", false, rc.Cleaners),
		perm("White Alligator (both)", true, rc.Cleaners),
	}
}

// permTable measures w under the four permutations and renders the Fig 4 /
// Fig 7 format: relative throughput plus write-allocation core usage.
func (rc RunConfig) permTable(id, title string, w Attacher) (Table, []measurement, error) {
	t := Table{
		ID:    id,
		Title: title,
		Headers: []string{"configuration", "ops/s", "rel-throughput", "cleaner-cores", "infra-cores",
			"walloc-cores", "total-cores"},
	}
	return rc.rows(t, rc.permutations(w), func(m, base measurement) []string {
		r := m.res
		return []string{f0(r.OpsPerSec), pct(r.OpsPerSec, base.res.OpsPerSec), f2(r.Cores.Cleaner),
			f2(r.Cores.Infra), f2(r.Cores.WriteAllocation()), f2(r.Cores.Total())}
	})
}

// Fig4 reproduces Figure 4: sequential write under the four permutations.
// Paper shape: +7% (infra only), +82% (cleaners only), +274% (both);
// ~6.2 write-allocation cores at full parallelism.
func Fig4(rc RunConfig) (Table, error) {
	t, _, err := rc.permTable("Fig4", "Sequential write: throughput & core usage by parallelization", workload.DefaultSeqWrite())
	t.Notes = append(t.Notes, "paper: +7% infra-only, +82% cleaners-only, +274% both")
	return t, err
}

// Fig7 reproduces Figure 7: random write under the four permutations.
// Paper shape (inverted vs Fig 4): +25% infra-only, +14% cleaners-only,
// +50% both.
func Fig7(rc RunConfig) (Table, error) {
	t, _, err := rc.permTable("Fig7", "Random write: throughput & core usage by parallelization", workload.DefaultRandWrite())
	t.Notes = append(t.Notes, "paper: +25% infra-only, +14% cleaners-only, +50% both")
	return t, err
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
	var scs []scenario
	for n := 1; n <= 6; n++ {
		scs = append(scs, newScenario([]string{fmt.Sprint(n)}, withCleaners(rc.Base, n), workload.DefaultSeqWrite()))
	}
	t, _, err := rc.rows(t, scs, func(m, base measurement) []string {
		r := m.res
		return []string{f0(r.OpsPerSec), pct(r.OpsPerSec, base.res.OpsPerSec),
			f2(r.Cores.Cleaner), f2(r.Cores.Infra), f2(r.Cores.Total())}
	})
	return t, err
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
	var scs []scenario
	for i, label := range []string{"serialized", "parallel"} {
		cfg := withCleaners(rc.Base, rc.Cleaners)
		cfg.Allocator.InfraParallel = i == 1
		scs = append(scs, newScenario([]string{label}, cfg, workload.DefaultSeqWrite()))
	}
	t, _, err := rc.rows(t, scs, func(m, base measurement) []string {
		r := m.res
		return []string{f0(r.OpsPerSec), pct(r.OpsPerSec, base.res.OpsPerSec), f2(r.Cores.Infra), f2(r.Cores.Total())}
	})
	t.Notes = append(t.Notes, "paper: infra cores 0.94 -> 2.35, throughput +106%")
	return t, err
}
