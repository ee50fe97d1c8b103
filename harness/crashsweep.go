package harness

import (
	"fmt"
	"slices"
	"strings"

	"wafl"
	"wafl/internal/nsmodel"
)

// The sweeps' fixed shape. A crash sweep crashes, per CP mode and seed, at
// sweepPoints evenly spaced event indices of a baseline run of each of two
// workloads: sweepClients clients of sweepOps operations, one op in
// sweepSnapEvery a snapshot op, and a history of every logged operation
// kind. On its first seed it adds the first sweepPhases CP phase boundaries
// (one CP's nine), a point mid-shed under overload, and cloneBounds
// boundaries (two CPs) of the clone window. The cluster sweep crashes one
// member at clusterPoints event indices while clusterClients clients of
// clusterOps operations run on each member.
const (
	sweepPoints    = 8
	sweepPhases    = 9
	cloneBounds    = 18
	sweepClients   = 4
	sweepOps       = 200
	sweepSnapEvery = 25

	clusterPoints  = 6
	clusterClients = 3
	clusterOps     = 150
)

// sweepConfig is the sweeps' system: a small server under torn writes,
// delayed completions and transient read errors, its payloads byte-exact.
func sweepConfig() wafl.Config {
	cfg := wafl.DefaultConfig()
	cfg.Cores = 8
	cfg.RAIDGroups = 2
	cfg.DataDrives = 3
	cfg.DriveBlocks = 16384
	cfg.AAStripes = 1024
	cfg.Volumes = 2
	cfg.VolumeBlocks = 1 << 15
	cfg.NVRAMHalfBytes = 512 << 10
	cfg.StripesPerVolume = 8
	cfg.RangesPerVBN = 4
	cfg.PayloadBytes = 4096 // byte-exact content verification
	cfg.Allocator.MaxCleaners = 4
	cfg.Allocator.InitialCleaners = 2
	cfg.Faults = wafl.FaultConfig{
		TornWriteEvery:  3,
		TornWritePrefix: -1,
		DelayWriteEvery: 7,
		DelayReadEvery:  5,
		Delay:           200 * wafl.Microsecond,
		ReadErrEvery:    9,
	}
	return cfg
}

// CrashSweepResult is the machine-readable sweep outcome.
type CrashSweepResult struct {
	PointsRun int      // crash points actually exercised (incl. phase points)
	Requested int      // crash points the schedules asked for; more than PointsRun when one ran short
	Failures  []string // verification/fsck failures, capped
}

// OK reports whether every swept crash point passed.
func (r CrashSweepResult) OK() bool { return len(r.Failures) == 0 }

// schedule is one row of a sweep: a system, its clients, and the crash points
// to take — each a coordinate that reproduces, the simulation being
// deterministic. Every sweep is a list of these over one runner, crashPoint.
type schedule struct {
	name  string      // the table's mode column
	repro string      // the waflbench arguments that run this schedule again
	cfg   wafl.Config // seed and CP mode included

	// Per member, clients clients each take steps operations of mix (zero:
	// until it stops) on its volumes, one empty span-block file per client
	// (sweepSpan unless the schedule's script needs another size).
	mix                  nsmodel.Mix
	clients, steps, span int

	// Crash at events evenly spaced event indices of a baseline run, at each
	// of the first bounds CP phase boundaries hit once after holds (nil: from
	// the start), or the first time when holds, polled every 2 ms.
	events, bounds int
	after, when    func(*run) bool
	victims        int // fail member i mod victims at point i while the rest serve; zero fails the whole system
}

// Every sweep's clients start from a sweepSpan-block file each, and a
// simulated run segment lasts at most sweepMaxRun.
const (
	sweepSpan   = 512
	sweepMaxRun = 2 * wafl.Second
)

// point is a crash point: halt once event index event is dispatched, at CP
// phase boundary number boundary, or (both zero) when the schedule's
// predicate holds; then fail member victim, or the whole system (-1).
type point struct {
	event    uint64
	boundary int
	victim   int
}

// run is one built system, its model and its clients.
type run struct {
	sys     *wafl.System
	model   *nsmodel.Model
	clients []*nsmodel.Client
	handles []*wafl.ClientCtx // by client, for CrashMember
}

// build constructs the schedule's system: the files are created and committed
// (their inode records are on media before a logged write names them), then
// the clients attach, pinned to their member's volumes — a member crash takes
// down exactly its own, client IDs member*s.clients and up.
func (s *schedule) build() (*run, error) {
	sys, err := wafl.NewSystem(s.cfg)
	if err != nil {
		return nil, err
	}
	r := &run{sys: sys, model: nsmodel.New()}
	for id := 0; id < sys.Members()*s.clients; id++ {
		var vols []int
		for v := 0; v < s.cfg.Volumes; v++ {
			vols = append(vols, id/s.clients*s.cfg.Volumes+v)
		}
		vol := vols[id%len(vols)]
		r.model.Begin(-1, nsmodel.Op{Kind: nsmodel.Create, Vol: vol, N: s.span})
		r.model.Ack(-1, sys.CreateFileDirect(vol, uint64(s.span)), true)
		r.clients = append(r.clients, r.model.Client(id, s.cfg.Seed<<8+int64(id), vols))
	}
	if err := sys.Flush(); err != nil {
		sys.Shutdown()
		return nil, fmt.Errorf("%s: setup flush: %w", s.name, err)
	}
	for id, cl := range r.clients {
		r.handles = append(r.handles, sys.ClientThread(fmt.Sprintf("sweep-%d", id),
			func(c *wafl.ClientCtx) { cl.Run(c, s.mix, s.steps) }))
	}
	return r, nil
}

// finished reports whether every client outside member skip has.
func (r *run) finished(s *schedule, skip int) bool {
	for id, cl := range r.clients {
		if id/s.clients != skip && !cl.Finished {
			return false
		}
	}
	return true
}

// runUntil runs the system a segment at a time until stop holds, and reports
// whether it did within n segments.
func (r *run) runUntil(seg wafl.Duration, n int, stop func() bool) bool {
	for i := 0; i < n && !stop(); i++ {
		r.sys.Run(seg)
	}
	return stop()
}

// runTo advances the system to the point's halt, if it gets there: not to a
// boundary the workload, and the four segments its tail CPs get, end before.
func (r *run) runTo(s *schedule, p point) bool {
	switch {
	case p.event > 0:
		return r.sys.RunToEvent(p.event, 128*sweepMaxRun)
	case p.boundary == 0:
		return r.runUntil(2*wafl.Millisecond, 256, func() bool { return s.when(r) })
	}
	hits := 0
	r.sys.SetCPPhaseHook(func(string) bool {
		if s.after != nil && !s.after(r) {
			return false
		}
		if hits++; hits == p.boundary {
			r.sys.RequestHalt()
		}
		return hits == p.boundary
	})
	r.runUntil(sweepMaxRun, 64, func() bool { return r.sys.Halted() || r.finished(s, -1) })
	return r.runUntil(sweepMaxRun, 4, r.sys.Halted)
}

// crashPoint builds the schedule's system, runs it to the point's halt, and
// takes it through the full cycle: fail the point's domain → recover →
// verify, fail it again before it runs (the double crash: everything
// acknowledged must still be NVRAM-protected) → recover → verify, quiesce →
// verify the committed image; verify is the model plus every member's fsck.
// A victim member's survivors keep serving through its first outage and must
// make progress. It returns what failed, and whether the halt was reached.
func (s *schedule) crashPoint(p point) (fails []string, reached bool) {
	r, err := s.build()
	if err != nil {
		return []string{"build: " + err.Error()}, true
	}
	defer r.sys.Shutdown()
	if !r.runTo(s, p) {
		return nil, false
	}
	for _, leg := range []string{"recover", "double", "quiesced"} {
		switch {
		case leg == "quiesced":
			err = r.sys.Quiesce()
		case p.victim < 0:
			r.sys.Crash()
			_, err = r.sys.Recover()
		case leg == "recover":
			idle, before := r.finished(s, p.victim), r.model.Acked // (idle: their bounded workload was over already)
			r.sys.CrashMember(p.victim, r.handles[p.victim*s.clients:(p.victim+1)*s.clients]...)
			if !r.runUntil(sweepMaxRun, 64, func() bool { return r.finished(s, p.victim) }) {
				fails = append(fails, "survivors did not finish")
			} else if !idle && r.model.Acked == before {
				fails = append(fails, "survivors made no progress during the outage")
			}
			err = r.sys.RecoverMember(p.victim)
		default:
			r.sys.CrashMember(p.victim)
			err = r.sys.RecoverMember(p.victim)
		}
		if err != nil {
			if fails = append(fails, fmt.Sprintf("%s: %v", leg, err)); leg != "quiesced" {
				return fails, true // nothing mounted to verify
			}
		}
		for _, e := range r.model.Verify(r.sys, leg == "quiesced") {
			fails = append(fails, leg+": "+e)
		}
		if rep := r.sys.Fsck(); !rep.OK() {
			fails = append(fails, fmt.Sprintf("%s: %s", leg, rep))
		}
	}
	if len(fails) > 0 {
		fails = append(fails, r.model.Trail())
	}
	return fails, true
}

// sweep takes every crash point of the schedule and adds its row to tab.
func (s *schedule) sweep(tab *Table, res *CrashSweepResult) error {
	var pts []point
	acked := "-"
	if s.events > 0 {
		// Baseline: learn the crashable event-index span (e0, e1).
		r, err := s.build()
		if err != nil {
			return err
		}
		e0 := r.sys.Events()
		finished := r.runUntil(sweepMaxRun, 64, func() bool { return r.finished(s, -1) })
		e1 := r.sys.Events()
		acked = fmt.Sprint(r.model.Acked)
		r.sys.Shutdown()
		if !finished || e1 <= e0+1 {
			return fmt.Errorf("%s seed %d: baseline workload did not finish, or is empty [%d,%d]", s.name, s.cfg.Seed, e0, e1)
		}
		for i := 0; i < s.events; i++ {
			p := point{event: e0 + uint64(i+1)*(e1-e0)/uint64(s.events+1), victim: -1}
			if s.victims > 0 {
				p.victim = i % s.victims
			}
			pts = append(pts, p)
		}
	}
	for j := 1; j <= s.bounds; j++ {
		pts = append(pts, point{boundary: j, victim: -1})
	}
	if s.when != nil {
		pts = append(pts, point{victim: -1})
	}
	ran, failed := 0, 0
	for _, p := range pts {
		fails, reached := s.crashPoint(p)
		if !reached && p.boundary > 0 {
			break // every later boundary is out of reach too
		} else if !reached {
			fails = []string{"halt not reached"}
		} else {
			ran++
		}
		if len(fails) > 0 {
			failed++
			res.Failures = append(res.Failures, fmt.Sprintf("%s, seed %d, at %+v: %s (reproduce: waflbench -exp %s)",
				s.name, s.cfg.Seed, p, strings.Join(fails, "; "), s.repro))
		}
	}
	res.PointsRun += ran
	res.Requested += len(pts)
	points := fmt.Sprint(ran)
	if ran < len(pts) && failed == 0 {
		points = fmt.Sprintf("ran %d of %d: boundary space exhausted", ran, len(pts))
	}
	tab.Rows = append(tab.Rows, []string{fmt.Sprint(s.cfg.Seed), s.name, points, acked, fmt.Sprint(failed)})
	return nil
}

// runSchedules sweeps each schedule into a row of the sweep's table, closed
// with the FAIL notes or the count of verified points.
func runSchedules(id, title string, scheds []schedule, verified string) (Table, CrashSweepResult, error) {
	tab := Table{ID: id, Title: title, Headers: []string{"seed", "mode", "points", "acked ops", "failures"}}
	var res CrashSweepResult
	for i := range scheds {
		if err := scheds[i].sweep(&tab, &res); err != nil {
			return tab, res, err
		}
	}
	for _, f := range res.Failures {
		tab.Notes = append(tab.Notes, "FAIL "+f)
	}
	if res.OK() {
		tab.Notes = append(tab.Notes, fmt.Sprintf("%d %s", res.PointsRun, verified))
	}
	return tab, res, nil
}

// crashSweep sweeps scheds into the crashsweep table.
func crashSweep(scheds []schedule) (Table, CrashSweepResult, error) {
	return runSchedules("crashsweep", "systematic crash/recovery verification (§II-C contract)", scheds,
		"crash points: recovery + double-crash recovery all verified")
}

// filesMix is the sweeps' base workload: writes, creates, deletes and
// getattrs 7:1:1:1, with one op in snapEvery a snapshot create or delete.
func filesMix(snapEvery int) nsmodel.Mix {
	n, snaps := 1, 0
	if snapEvery > 1 {
		n, snaps = snapEvery-1, 5
	}
	return nsmodel.Mix{Weights: [nsmodel.NumKinds]int{nsmodel.Write: 7 * n, nsmodel.Create: n, nsmodel.Delete: n, nsmodel.Getattr: n,
		nsmodel.SnapCreate: snaps, nsmodel.SnapDelete: snaps}}
}

// cloneScript is the clone window's fixed history, on four disjoint spans of
// volume 0's one file so every block is attributable to a step: the frozen
// image, parent churn the SnapRestore must revert, clone-side divergence, and
// writes after the restore. Its CloneCreate is step cloneWindow.
func cloneScript() []nsmodel.Op {
	writes := func(vol, from, n int) (ops []nsmodel.Op) {
		for b := 0; b < n; b++ {
			ops = append(ops, nsmodel.Op{Kind: nsmodel.Write, Vol: vol, FBN: wafl.FBN(from + b), N: 1})
		}
		return ops
	}
	return slices.Concat(
		[]nsmodel.Op{{Kind: nsmodel.Write, N: 64}, {Kind: nsmodel.SnapCreate}}, writes(0, 64, 32),
		[]nsmodel.Op{{Kind: nsmodel.CloneCreate}}, writes(nsmodel.LastClone, 96, 16),
		[]nsmodel.Op{{Kind: nsmodel.CloneSplit, Vol: nsmodel.LastClone}, {Kind: nsmodel.SnapRestore}}, writes(0, 128, 8))
}

const cloneWindow = 2 + 32

// crashSchedules is the crash sweep at points event indices per workload
// over seeds: per CP mode (fan-out, then the serial ablation, so that each
// CP boundary is crash-tested under both), each seed's event-index and
// history schedules (three clients drawing every logged operation kind,
// nsmodel.AllKinds) and the first seed's phase-boundary one; then the first
// seed's overload point and clone window. After every crash the system is
// recovered, checked with fsck and verified against the model of everything
// its clients were acknowledged, then crashed again before it can run (the
// double crash that catches NVRAM-protection bugs) and re-verified, and once
// more after it quiesces (crashPoint).
func crashSchedules(points int, seeds []int64) []schedule {
	sched := func(name string, seed int64) schedule {
		s := schedule{name: name, cfg: sweepConfig(),
			repro: fmt.Sprintf("crashsweep -seeds %d -points %d", seed, points),
			mix:   filesMix(sweepSnapEvery), clients: sweepClients, steps: sweepOps, span: sweepSpan}
		s.cfg.Seed = seed
		return s
	}
	var scheds []schedule
	for _, parallel := range []bool{true, false} {
		tag := map[bool]string{true: "/parallel-cp", false: "/serial-cp"}[parallel]
		mode := func(name string, seed int64) schedule {
			s := sched(name+tag, seed)
			s.cfg.Allocator.ParallelCP = parallel
			return s
		}
		for _, seed := range seeds {
			s, h := mode("event-index", seed), mode("history", seed)
			s.events, h.events = points, points
			h.mix, h.clients, h.span, h.cfg.CloneSlots = nsmodel.AllKinds, 3, 64, 2
			scheds = append(scheds, s, h)
		}
		s := mode("cp-phase", seeds[0])
		s.bounds = sweepPhases
		scheds = append(scheds, s)
	}
	// A small log and admission on, under hammering bulk writers that fill
	// it past the shed watermark; the crash lands well into the shed regime.
	// The model hears of a bulk write what WriteBulk reported, so
	// verification proves the shed-load contract: every admitted write
	// replays, and nothing shed leaks into the recovered image.
	s := sched("overload-shed", seeds[0])
	s.mix, s.steps = nsmodel.Mix{Weights: [nsmodel.NumKinds]int{nsmodel.Write: 1, nsmodel.WriteBulk: 3}}, 0
	s.cfg.NVRAMHalfBytes = 256 << 10
	s.cfg.Admission.Enabled = true
	s.when = func(r *run) bool { return r.sys.Stats().Admission.Shed >= 64 }
	return append(scheds, s, cloneSchedule(seeds[0], cloneBounds))
}

// cloneSchedule crashes at the first points CP phase boundaries inside the
// clone window on seed (cloneScript): an acked clone serves the frozen parent
// image plus its own acked writes, an acked restore is all-or-nothing and
// supersedes the parent's post-snapshot churn, and fsck must hold zero
// leaked or missing blocks on every recovery leg.
func cloneSchedule(seed int64, points int) schedule {
	s := schedule{name: "clone-ops", cfg: sweepConfig(),
		repro: fmt.Sprintf("clonesweep -seeds %d -points %d", seed, points),
		mix:   nsmodel.Mix{Script: cloneScript()}, clients: 1, span: 256, bounds: points}
	s.cfg.Seed, s.cfg.CloneSlots = seed, 2
	s.after = func(r *run) bool { return r.model.Acked > cloneWindow } // (the set-up's create is the one more)
	return s
}

// clusterSchedules is the member-crash sweep of a members-wide cluster at
// points event indices per seed: at each point one member fails (victims
// rotate across points) while the survivors keep serving, which must make
// progress; then it recovers in place, is crashed again at once (the double
// crash), recovers and quiesces, the model and every member's fsck checked
// on each leg. Clients are pinned to their member's volumes, so a member
// crash takes down exactly its own.
func clusterSchedules(members, points int, seeds []int64) []schedule {
	var scheds []schedule
	for _, seed := range seeds {
		s := schedule{name: "member-crash", cfg: sweepConfig(), events: points, victims: members,
			repro: fmt.Sprintf("clustersweep -seeds %d -points %d", seed, points),
			mix:   filesMix(0), clients: clusterClients, steps: clusterOps, span: sweepSpan}
		s.cfg.Seed, s.cfg.Members = seed, members
		scheds = append(scheds, s)
	}
	return scheds
}
