package harness

import (
	"fmt"

	"wafl"
)

// ClusterSweepConfig parameterizes the multi-member crash sweep: a seeded
// per-member workload is run to completion once to learn its event span,
// then re-run and halted at evenly spaced event indices. At each point one
// member is crashed (victims rotate across points) while the survivors keep
// serving; the sweep then verifies survivor progress, recovers the member
// in place, crashes it again immediately (the double crash that catches
// NVRAM re-protection bugs), recovers again, quiesces, and checks the
// reference model and every member's fsck on each leg (see schedule).
type ClusterSweepConfig struct {
	// Base is the cluster configuration; Base.Members must be >= 2.
	// Base.Seed is overridden by Seeds.
	Base wafl.Config
	// Seeds are the workload seeds swept.
	Seeds []int64
	// Points is how many evenly spaced event-index crash points to sweep
	// per seed.
	Points int
}

// Each member runs clusterClients clients of clusterOps operations each.
// Clients are pinned to their member's volumes, so a member crash takes down
// exactly its own clients.
const (
	clusterClients = 3
	clusterOps     = 150
)

// DefaultClusterSweep returns a bounded two-member sweep sized for CI,
// with the crash-sweep fault plan (torn writes, delays, read errors) live
// on every member.
func DefaultClusterSweep() ClusterSweepConfig {
	base := DefaultCrashSweep().Base
	base.Members = 2
	return ClusterSweepConfig{Base: base, Seeds: []int64{1, 2}, Points: 6}
}

// ClusterSweep runs the member-crash sweep and returns a rendered table
// plus the machine-readable result.
func ClusterSweep(cfg ClusterSweepConfig) (Table, CrashSweepResult, error) {
	var scheds []schedule
	for _, seed := range cfg.Seeds {
		s := schedule{name: "member-crash", cfg: cfg.Base, events: cfg.Points, victims: cfg.Base.Members,
			repro: fmt.Sprintf("clustersweep -seeds %d -points %d", seed, cfg.Points),
			mix:   filesMix(0), clients: clusterClients, steps: clusterOps, span: sweepSpan}
		s.cfg.Seed = seed
		scheds = append(scheds, s)
	}
	if cfg.Base.Members < 2 {
		return Table{}, CrashSweepResult{}, fmt.Errorf("clustersweep: Base.Members must be >= 2 (got %d)", cfg.Base.Members)
	}
	return runSchedules("clustersweep", "independent member crash/recovery under surviving traffic", scheds,
		"member-crash points: survivor progress, recovery, double crash, per-member fsck all verified")
}
