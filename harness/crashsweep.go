package harness

import (
	"fmt"
	"slices"
	"strings"

	"wafl"
	"wafl/internal/nsmodel"
)

// CrashSweepConfig parameterizes a crash-schedule sweep: a seeded workload
// is run to completion once to learn its event-index span, then re-run and
// crashed at evenly spaced event indices (and, optionally, at CP phase
// boundaries). After every crash the system is recovered, checked with
// Fsck, and verified against the reference model (internal/nsmodel) of
// everything its clients were acknowledged; then the *recovered* system is
// crashed again before it can run — the double-crash that catches
// NVRAM-protection bugs — and re-verified, and once more after it quiesces.
type CrashSweepConfig struct {
	// Base is the system configuration, including the fault plan
	// (Base.Faults). Base.Seed is overridden by Seeds.
	Base wafl.Config
	// Seeds are the workload seeds swept; every seed gets its own set of
	// crash points.
	Seeds []int64
	// Points is how many evenly spaced event-index crash points to sweep
	// per seed (once per workload: files and snapshots, and the history one).
	Points int
	// Phases, when > 0, additionally crashes at the first Phases CP
	// phase-boundary hits of the first seed's run (a CP has nine
	// boundaries, so Phases = 9 covers one full CP, 18 two, ...).
	Phases int
	// Clients and OpsPerClient bound the workload.
	Clients      int
	OpsPerClient int
	// SnapEvery, when > 0, makes one op in SnapEvery a snapshot op: creates
	// and deletes (of any snapshot of the volume) in equal parts.
	SnapEvery int
	// BaseBlocks is the size of each client's preallocated base file.
	BaseBlocks int64
	// MaxRun bounds one simulated run segment.
	MaxRun wafl.Duration
	// Modes lists the ParallelCP settings to sweep; every mode repeats the
	// full event-index and phase-boundary schedule, so each CP boundary is
	// crash-tested both under fan-out and on the serial ablation. Empty
	// means "just Base.Allocator.ParallelCP as configured".
	Modes []bool
	// Overload adds one crash point taken while NVLog admission control is
	// actively shedding bulk load: the crash lands mid-shed and recovery
	// must replay exactly the admitted (logged, acked) writes — shed writes
	// were never logged and must stay absent from the contract.
	Overload bool
	// ClonePoints, when > 0, adds that many consecutive CP phase-boundary
	// crash points (18 = two full CPs) taken inside a scripted clone window
	// (snapshot → parent churn → clone create → clone writes → clone split
	// → SnapRestore → post-restore writes): an acked clone serves the frozen
	// parent image plus its own acked writes, an acked restore is
	// all-or-nothing and supersedes the parent's post-snapshot churn, and
	// fsck must hold zero leaked/missing blocks on every recovery leg.
	ClonePoints int
}

// DefaultCrashSweep returns a bounded sweep sized for CI: a small server,
// two seeds, torn writes + delayed completions + transient read errors.
func DefaultCrashSweep() CrashSweepConfig {
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
	return CrashSweepConfig{
		Base:         cfg,
		Seeds:        []int64{1, 2},
		Points:       8,
		Phases:       9,
		Clients:      4,
		OpsPerClient: 200,
		SnapEvery:    25,
		BaseBlocks:   512,
		MaxRun:       2 * wafl.Second,
		Modes:        []bool{true, false},
		Overload:     true,
		ClonePoints:  18,
	}
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
	name   string      // the table's mode column
	repro  string      // the waflbench arguments that run this schedule again
	cfg    wafl.Config // seed and CP mode included
	maxRun wafl.Duration

	// Per member, clients clients each take steps operations of mix (zero:
	// until it stops) on its volumes, one empty span-block file per client.
	mix                  nsmodel.Mix
	clients, steps, span int

	// Crash at events evenly spaced event indices of a baseline run, at each
	// of the first bounds CP phase boundaries hit once after holds (nil: from
	// the start), or the first time when holds, polled every 2 ms.
	events, bounds int
	after, when    func(*run) bool
	victims        int // fail member i mod victims at point i while the rest serve; zero fails the whole system
}

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
		return r.sys.RunToEvent(p.event, 128*s.maxRun)
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
	r.runUntil(s.maxRun, 64, func() bool { return r.sys.Halted() || r.finished(s, -1) })
	return r.runUntil(s.maxRun, 4, r.sys.Halted)
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
	defer func() { r.sys.Shutdown() }() // whichever system survived
	if !r.runTo(s, p) {
		return nil, false
	}
	for _, leg := range []string{"recover", "double", "quiesced"} {
		switch {
		case leg == "quiesced":
			err = r.sys.Quiesce()
		case p.victim < 0:
			r.sys.Crash()
			var rec *wafl.System
			if rec, err = r.sys.Recover(); err == nil {
				r.sys = rec
			}
		case leg == "recover":
			idle, before := r.finished(s, p.victim), r.model.Acked // (idle: their bounded workload was over already)
			r.sys.CrashMember(p.victim, r.handles[p.victim*s.clients:(p.victim+1)*s.clients]...)
			if !r.runUntil(s.maxRun, 64, func() bool { return r.finished(s, p.victim) }) {
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
		finished := r.runUntil(s.maxRun, 64, func() bool { return r.finished(s, -1) })
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

// CrashSweep runs the crash-schedule sweep described by cfg — the
// event-index, history (three clients drawing every logged operation kind,
// nsmodel.AllKinds) and phase-boundary schedules once per entry of cfg.Modes
// (ParallelCP on/off) — and returns a rendered table plus the
// machine-readable result.
func CrashSweep(cfg CrashSweepConfig) (Table, CrashSweepResult, error) {
	modes, first := cfg.Modes, cfg.Base.Seed // first: the seed of the single-seed schedules
	if len(modes) == 0 {
		modes = []bool{cfg.Base.Allocator.ParallelCP}
	}
	if len(cfg.Seeds) > 0 {
		first = cfg.Seeds[0]
	}
	// The sweeps' base load, on seed in CP mode parallel.
	sched := func(name string, seed int64, parallel bool) schedule {
		s := schedule{name: name, cfg: cfg.Base, maxRun: cfg.MaxRun,
			repro: fmt.Sprintf("crashsweep -seeds %d -points %d", seed, cfg.Points),
			mix:   filesMix(cfg.SnapEvery), clients: cfg.Clients, steps: cfg.OpsPerClient, span: int(cfg.BaseBlocks)}
		s.cfg.Seed, s.cfg.Allocator.ParallelCP = seed, parallel
		return s
	}
	var scheds []schedule
	for _, parallel := range modes {
		tag := map[bool]string{true: "/parallel-cp", false: "/serial-cp"}[parallel]
		for _, seed := range cfg.Seeds {
			s, h := sched("event-index"+tag, seed, parallel), sched("history"+tag, seed, parallel)
			s.events, h.events = cfg.Points, cfg.Points
			h.mix, h.clients, h.span, h.cfg.CloneSlots = nsmodel.AllKinds, 3, 64, 2
			if cfg.Points > 0 {
				scheds = append(scheds, s, h)
			}
		}
		if cfg.Phases > 0 { // CP phase boundaries, on the first seed
			s := sched("cp-phase"+tag, first, parallel)
			s.bounds = cfg.Phases
			scheds = append(scheds, s)
		}
	}
	if cfg.Overload {
		// A small log and admission tuned to shed after two delay rounds,
		// under hammering bulk writers; the crash lands well into the shed
		// regime. The model hears of a bulk write what WriteBulk reported, so
		// verification proves the shed-load contract: every admitted write
		// replays, and nothing shed leaks into the recovered image.
		s := sched("overload-shed", first, cfg.Base.Allocator.ParallelCP)
		s.mix, s.steps = nsmodel.Mix{Weights: [nsmodel.NumKinds]int{nsmodel.Write: 1, nsmodel.WriteBulk: 3}}, 0
		s.cfg.NVRAMHalfBytes = 256 << 10
		s.cfg.Admission = wafl.DefaultAdmission()
		s.cfg.Admission.MaxDelay = 2 * s.cfg.Admission.DelayStep
		s.when = func(r *run) bool { return r.sys.Stats().Admission.Shed >= 64 }
		scheds = append(scheds, s)
	}
	if cfg.ClonePoints > 0 {
		s := sched("clone-ops", first, cfg.Base.Allocator.ParallelCP)
		s.repro = fmt.Sprintf("clonesweep -seeds %d -points %d", first, cfg.ClonePoints)
		s.mix, s.clients, s.span = nsmodel.Mix{Script: cloneScript()}, 1, 256
		s.cfg.CloneSlots, s.bounds = 2, cfg.ClonePoints
		s.after = func(r *run) bool { return r.model.Acked > cloneWindow } // (the set-up's create is the one more)
		scheds = append(scheds, s)
	}
	return runSchedules("crashsweep", "systematic crash/recovery verification (§II-C contract)", scheds,
		"crash points: recovery + double-crash recovery all verified")
}
