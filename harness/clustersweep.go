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
// NVRAM re-protection bugs), recovers again, and checks every acknowledged
// operation and every member's fsck.
type ClusterSweepConfig struct {
	// Base is the cluster configuration; Base.Members must be >= 2.
	// Base.Seed is overridden by Seeds.
	Base wafl.Config
	// Seeds are the workload seeds swept.
	Seeds []int64
	// Points is how many evenly spaced event-index crash points to sweep
	// per seed.
	Points int
	// ClientsPerMember and OpsPerClient bound the workload. Clients are
	// pinned to their member's volumes, so a member crash takes down
	// exactly its own clients.
	ClientsPerMember int
	OpsPerClient     int
	// BaseBlocks is the size of each client's preallocated base file.
	BaseBlocks int64
	// MaxRun bounds one simulated run segment.
	MaxRun wafl.Duration
}

// DefaultClusterSweep returns a bounded two-member sweep sized for CI,
// with the crash-sweep fault plan (torn writes, delays, read errors) live
// on every member.
func DefaultClusterSweep() ClusterSweepConfig {
	base := DefaultCrashSweep().Base
	base.Members = 2
	return ClusterSweepConfig{
		Base:             base,
		Seeds:            []int64{1, 2},
		Points:           6,
		ClientsPerMember: 3,
		OpsPerClient:     150,
		BaseBlocks:       512,
		MaxRun:           2 * wafl.Second,
	}
}

// clusterRun is one constructed sweep system: per-member ack logs, client
// handles (for CrashMember pinning), and per-member completion counts.
type clusterRun struct {
	sys     *wafl.System
	acks    []*ackLog           // one per member
	clients [][]*wafl.ClientCtx // client handles, per member
	e0      uint64
}

// buildClusterRun constructs a cluster for one sweep run: per-member base
// files are created and committed, then ClientsPerMember clients attach to
// each member, pinned to its volumes. The workload is the crash-sweep mix
// minus snapshots: base-file writes, creates (immediately written), deletes
// of own earlier creates, and getattrs.
func buildClusterRun(cfg ClusterSweepConfig, seed int64) (*clusterRun, error) {
	c := cfg.Base
	c.Seed = seed
	sys, err := wafl.NewSystem(c)
	if err != nil {
		return nil, err
	}
	members := sys.Members()
	r := &clusterRun{sys: sys, acks: make([]*ackLog, members), clients: make([][]*wafl.ClientCtx, members)}
	base := make([][]uint64, members)
	for mi := 0; mi < members; mi++ {
		r.acks[mi] = newAckLog()
		r.acks[mi].baseBlocks = cfg.BaseBlocks
		for i := 0; i < cfg.ClientsPerMember; i++ {
			vol := mi*c.Volumes + i%c.Volumes
			base[mi] = append(base[mi], sys.CreateFileDirect(vol, uint64(cfg.BaseBlocks)))
		}
	}
	if err := sys.Flush(); err != nil {
		sys.Shutdown()
		return nil, fmt.Errorf("setup flush: %w", err)
	}
	for mi := 0; mi < members; mi++ {
		ack := r.acks[mi]
		for i := 0; i < cfg.ClientsPerMember; i++ {
			vol := mi*c.Volumes + i%c.Volumes
			ino := base[mi][i]
			cc := sys.ClientThread(fmt.Sprintf("m%d-sweep-%d", mi, i), func(cl *wafl.ClientCtx) {
				var mine []uint64
				for op := 0; op < cfg.OpsPerClient && cl.Alive(); op++ {
					switch rnd := cl.Rand(10); {
					case rnd < 7:
						fbn := wafl.FBN(cl.Rand(cfg.BaseBlocks - 4))
						n := 1 + int(cl.Rand(4))
						cl.Write(vol, ino, fbn, n)
						ack.ops = append(ack.ops, ackOp{'w', vol, ino, fbn, n})
					case rnd == 7:
						f := cl.Create(vol, 64)
						ack.ops = append(ack.ops, ackOp{'c', vol, f, 0, 0})
						cl.Write(vol, f, 0, 1)
						ack.ops = append(ack.ops, ackOp{'w', vol, f, 0, 1})
						mine = append(mine, f)
					case rnd == 8 && len(mine) > 0:
						f := mine[0]
						mine = mine[1:]
						ack.ops = append(ack.ops, ackOp{'D', vol, f, 0, 0})
						if cl.Delete(vol, f) {
							ack.ops = append(ack.ops, ackOp{'d', vol, f, 0, 0})
						}
					default:
						cl.Getattr(vol, ino)
					}
				}
				ack.done++
			})
			r.clients[mi] = append(r.clients[mi], cc)
		}
	}
	r.e0 = sys.Events()
	return r, nil
}

// doneClients sums finished clients across the given members.
func (r *clusterRun) doneClients(skip int) (done, want int) {
	for mi, a := range r.acks {
		if mi == skip {
			continue
		}
		done += a.done
		want += len(r.clients[mi])
	}
	return done, want
}

// ClusterSweep runs the member-crash sweep and returns a rendered table
// plus the machine-readable result.
func ClusterSweep(cfg ClusterSweepConfig) (Table, CrashSweepResult, error) {
	var res CrashSweepResult
	tab := Table{
		ID:      "clustersweep",
		Title:   "independent member crash/recovery under surviving traffic",
		Headers: []string{"seed", "points", "acked ops", "failures"},
	}
	if cfg.Base.Members < 2 {
		return tab, res, fmt.Errorf("clustersweep: Base.Members must be >= 2 (got %d)", cfg.Base.Members)
	}
	for _, seed := range cfg.Seeds {
		// Baseline: learn the crashable event span [e0, e1].
		r, err := buildClusterRun(cfg, seed)
		if err != nil {
			return tab, res, err
		}
		for i := 0; i < 64; i++ {
			if d, w := r.doneClients(-1); d >= w {
				break
			}
			r.sys.Run(cfg.MaxRun)
		}
		if d, w := r.doneClients(-1); d < w {
			r.sys.Shutdown()
			return tab, res, fmt.Errorf("seed %d: baseline workload did not finish (%d/%d)", seed, d, w)
		}
		e0, e1 := r.e0, r.sys.Events()
		var totalOps int
		for _, a := range r.acks {
			totalOps += len(a.ops)
		}
		r.sys.Shutdown()
		if e1 <= e0+1 {
			return tab, res, fmt.Errorf("seed %d: empty crashable region [%d,%d]", seed, e0, e1)
		}

		failsBefore := len(res.Failures)
		for i := 0; i < cfg.Points; i++ {
			k := e0 + uint64(i+1)*(e1-e0)/uint64(cfg.Points+1)
			victim := i % cfg.Base.Members
			label := fmt.Sprintf("seed%d@event%d/victim%d", seed, k, victim)
			res.Failures = clusterCrashPoint(cfg, seed, k, victim, label, res.Failures)
			res.PointsRun++
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", seed), fmt.Sprintf("%d", cfg.Points),
			fmt.Sprintf("%d", totalOps), fmt.Sprintf("%d", len(res.Failures)-failsBefore),
		})
	}

	for _, f := range res.Failures {
		tab.Notes = append(tab.Notes, "FAIL "+f)
	}
	if res.OK() {
		tab.Notes = append(tab.Notes, fmt.Sprintf(
			"%d member-crash points: survivor progress, recovery, double crash, per-member fsck all verified",
			res.PointsRun))
	}
	return tab, res, nil
}

// clusterCrashPoint exercises one crash point: run to event k, crash the
// victim member (and its pinned clients), let survivors run and check they
// progress, recover the victim in place, immediately crash and recover it
// again, drain the cluster, then verify every member's acknowledged ops and
// fsck. The victim's ack log is frozen at the crash instant — exactly the
// set of ops §II-C binds it to.
func clusterCrashPoint(cfg ClusterSweepConfig, seed int64, k uint64, victim int, label string, fails []string) []string {
	r, err := buildClusterRun(cfg, seed)
	if err != nil {
		return append(fails, fmt.Sprintf("%s: build: %v", label, err))
	}
	sys := r.sys
	defer sys.Shutdown()
	if !sys.RunToEvent(k, 128*cfg.MaxRun) {
		return append(fails, fmt.Sprintf("%s: halt not reached", label))
	}

	victimAcked := r.acks[victim].freeze()
	survOpsAtCrash := 0
	for mi, a := range r.acks {
		if mi != victim {
			survOpsAtCrash += len(a.ops)
		}
	}
	survDoneAtCrash, survWant := r.doneClients(victim)
	sys.CrashMember(victim, r.clients[victim]...)

	// Survivors keep serving while the victim is down.
	for i := 0; i < 64; i++ {
		if d, w := r.doneClients(victim); d >= w {
			break
		}
		sys.Run(cfg.MaxRun)
	}
	if d, w := r.doneClients(victim); d < w {
		fails = append(fails, fmt.Sprintf("%s: survivors did not finish (%d/%d)", label, d, w))
	}
	survOpsAfter := 0
	for mi, a := range r.acks {
		if mi != victim {
			survOpsAfter += len(a.ops)
		}
	}
	// Survivors must have kept serving during the outage — unless they had
	// already finished their bounded workload before the crash point.
	if survDoneAtCrash < survWant && survOpsAfter <= survOpsAtCrash {
		fails = append(fails, fmt.Sprintf("%s: survivors made no progress during outage (%d -> %d)",
			label, survOpsAtCrash, survOpsAfter))
	}

	// Recover the victim, then crash it again before it runs a single
	// event: everything acked before the first crash must still be
	// NVRAM-protected by the remounted log.
	if err := sys.RecoverMember(victim); err != nil {
		return append(fails, fmt.Sprintf("%s: recovery failed: %v", label, err))
	}
	sys.CrashMember(victim)
	if err := sys.RecoverMember(victim); err != nil {
		return append(fails, fmt.Sprintf("%s: double-crash recovery failed: %v", label, err))
	}

	// Drain the recovery CP and the survivors' tail, then verify: the
	// victim against its frozen ack set, survivors against their full logs.
	if err := sys.Quiesce(); err != nil {
		fails = append(fails, fmt.Sprintf("%s: quiesce: %v", label, err))
	}
	fails = verifyAcked(sys, victimAcked, label+"/victim", fails)
	for mi, a := range r.acks {
		if mi == victim {
			continue
		}
		fails = verifyAcked(sys, a, fmt.Sprintf("%s/survivor%d", label, mi), fails)
	}
	for mi := 0; mi < sys.Members(); mi++ {
		if rep := sys.FsckMember(mi); !rep.OK() {
			fails = append(fails, fmt.Sprintf("%s: member %d fsck: %s", label, mi, rep))
		}
	}
	return fails
}
