package harness

import (
	"fmt"
	"strings"

	"wafl"
)

// CrashSweepConfig parameterizes a crash-schedule sweep: a seeded workload
// is run to completion once to learn its event-index span, then re-run and
// crashed at evenly spaced event indices (and, optionally, at CP phase
// boundaries). After every crash the system is recovered, checked with
// Fsck, and every acknowledged operation is verified against the data
// oracle; then the *recovered* system is crashed again before it can run —
// the double-crash that catches NVRAM-protection bugs — and re-verified.
type CrashSweepConfig struct {
	// Base is the system configuration, including the fault plan
	// (Base.Faults). Base.Seed is overridden by Seeds.
	Base wafl.Config
	// Seeds are the workload seeds swept; every seed gets its own set of
	// crash points.
	Seeds []int64
	// Points is how many evenly spaced event-index crash points to sweep
	// per seed.
	Points int
	// Phases, when > 0, additionally crashes at the first Phases CP
	// phase-boundary hits of the first seed's run (a CP has nine
	// boundaries, so Phases = 9 covers one full CP, 18 two, ...).
	Phases int
	// Clients and OpsPerClient bound the workload.
	Clients      int
	OpsPerClient int
	// SnapEvery, when > 0, makes each client run a snapshot op every
	// SnapEvery ops: a create when the client holds no snapshot of its own,
	// otherwise a delete of the one it holds (each client keeps at most one).
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
	// → SnapRestore → post-restore writes), each verified against a
	// dedicated oracle: an acked clone serves the frozen parent image plus
	// its own acked writes, an acked restore is all-or-nothing and
	// supersedes the parent's post-snapshot churn, and fsck must hold zero
	// leaked/missing blocks on every recovery leg.
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
	Failures  []string // verification/fsck failures, capped
}

// OK reports whether every swept crash point passed.
func (r CrashSweepResult) OK() bool { return len(r.Failures) == 0 }

// ackOp is one acknowledged client operation, recorded host-side the
// instant the simulated call returns (so it is exactly the set of ops the
// crash contract §II-C covers). Kind 'D' is a delete *intent*, recorded
// before the delete is issued: a crash can land after the delete applied
// and logged but before the client saw the ack, in which case the op may
// legitimately have survived — the contract only binds acknowledged ops.
type ackOp struct {
	kind byte // 'w' write, 'c' create, 'd' delete, 'D' delete intent
	vol  int
	ino  uint64
	fbn  wafl.FBN
	n    int
}

// snapKey identifies one snapshot across the sweep's bookkeeping maps.
type snapKey struct {
	vol int
	id  uint64
}

// ackSnap is one acknowledged snapshot create. SnapCreate acks only after
// the materializing CP commits, so an acked snapshot must survive any later
// crash. image is the set of base-file blocks the owning client had written
// (and been acked for) when the create returned: only that client writes its
// base file and it blocks for the whole create, so the frozen image holds
// exactly those blocks — written ones as the oracle payload, the rest holes.
type ackSnap struct {
	vol     int
	id      uint64
	baseIno uint64
	image   map[wafl.FBN]bool
}

// ackLog collects acknowledged operations and workload progress. The
// simulation serializes client threads, so no locking is needed.
type ackLog struct {
	ops        []ackOp
	snaps      []ackSnap        // acked snapshot creates ('s')
	delIntent  map[snapKey]bool // snapshot delete issued, maybe unacked ('T')
	delAcked   map[snapKey]bool // snapshot delete acknowledged ('t')
	baseBlocks int64            // base-file span, for hole probing
	done       int              // clients finished
}

func newAckLog() *ackLog {
	return &ackLog{delIntent: map[snapKey]bool{}, delAcked: map[snapKey]bool{}}
}

// freeze returns an immutable copy of the ack state for post-crash checks.
func (a *ackLog) freeze() *ackLog {
	c := newAckLog()
	c.baseBlocks = a.baseBlocks
	c.ops = append([]ackOp(nil), a.ops...)
	c.snaps = append([]ackSnap(nil), a.snaps...)
	for k := range a.delIntent {
		c.delIntent[k] = true
	}
	for k := range a.delAcked {
		c.delAcked[k] = true
	}
	return c
}

// sweepWorkload attaches the oracle workload: per client, a mix of writes
// to a preallocated base file, creates (immediately written), deletes of
// the client's own earlier creates, and getattrs. Inodes are never reused
// and base files are never deleted, so replay verification is exact.
func sweepWorkload(sys *wafl.System, cfg CrashSweepConfig, base []uint64, ack *ackLog) {
	for i := 0; i < cfg.Clients; i++ {
		i := i
		vol := i % cfg.Base.Volumes
		ino := base[i]
		sys.ClientThread(fmt.Sprintf("sweep-%d", i), func(c *wafl.ClientCtx) {
			var mine []uint64 // own created files, oldest first
			var ownSnap uint64
			written := map[wafl.FBN]bool{} // acked base-file blocks
			for op := 0; op < cfg.OpsPerClient && c.Alive(); op++ {
				if cfg.SnapEvery > 0 && op%cfg.SnapEvery == cfg.SnapEvery-1 {
					if ownSnap != 0 {
						k := snapKey{vol, ownSnap}
						ack.delIntent[k] = true
						if c.SnapDelete(vol, ownSnap) {
							ack.delAcked[k] = true
						}
						ownSnap = 0
					} else {
						id := c.SnapCreate(vol)
						img := make(map[wafl.FBN]bool, len(written))
						for k := range written {
							img[k] = true
						}
						ack.snaps = append(ack.snaps, ackSnap{vol, id, ino, img})
						ownSnap = id
					}
					continue
				}
				r := c.Rand(10)
				switch {
				case r < 7:
					fbn := wafl.FBN(c.Rand(cfg.BaseBlocks - 4))
					n := 1 + int(c.Rand(4))
					c.Write(vol, ino, fbn, n)
					ack.ops = append(ack.ops, ackOp{'w', vol, ino, fbn, n})
					for b := 0; b < n; b++ {
						written[fbn+wafl.FBN(b)] = true
					}
				case r == 7:
					f := c.Create(vol, 64)
					ack.ops = append(ack.ops, ackOp{'c', vol, f, 0, 0})
					c.Write(vol, f, 0, 1)
					ack.ops = append(ack.ops, ackOp{'w', vol, f, 0, 1})
					mine = append(mine, f)
				case r == 8 && len(mine) > 0:
					f := mine[0]
					mine = mine[1:]
					ack.ops = append(ack.ops, ackOp{'D', vol, f, 0, 0})
					if c.Delete(vol, f) {
						ack.ops = append(ack.ops, ackOp{'d', vol, f, 0, 0})
					}
				default:
					c.Getattr(vol, ino)
				}
			}
			ack.done++
		})
	}
}

// buildSweepSystem constructs a system for one sweep run: base files are
// created and committed (so their inode records are on media before any
// logged write references them), then the workload clients attach. The
// returned event index marks the start of the crashable region.
func buildSweepSystem(cfg CrashSweepConfig, seed int64) (*wafl.System, *ackLog, uint64, error) {
	c := cfg.Base
	c.Seed = seed
	sys, err := wafl.NewSystem(c)
	if err != nil {
		return nil, nil, 0, err
	}
	base := make([]uint64, cfg.Clients)
	for i := range base {
		base[i] = sys.CreateFileDirect(i%c.Volumes, uint64(cfg.BaseBlocks))
	}
	if err := sys.Flush(); err != nil {
		sys.Shutdown()
		return nil, nil, 0, fmt.Errorf("setup flush: %w", err)
	}
	ack := newAckLog()
	ack.baseBlocks = cfg.BaseBlocks
	sweepWorkload(sys, cfg, base, ack)
	return sys, ack, sys.Events(), nil
}

// verifyAcked checks every acknowledged operation against the system: a
// created-and-not-deleted file exists, a deleted file does not, every write
// to a live file reads back as the oracle payload, and every acknowledged
// snapshot still serves its exact frozen image (acked deletes stay deleted).
func verifyAcked(sys *wafl.System, ack *ackLog, label string, fails []string) []string {
	ops := ack.ops
	type fileKey struct {
		vol int
		ino uint64
	}
	// intent covers inos whose delete was issued but possibly unacked at
	// the crash: those may or may not survive, so only the acked-delete
	// direction is checked for them.
	intent := make(map[fileKey]bool)
	deleted := make(map[fileKey]bool)
	for _, op := range ops {
		switch op.kind {
		case 'D':
			intent[fileKey{op.vol, op.ino}] = true
		case 'd':
			deleted[fileKey{op.vol, op.ino}] = true
		}
	}
	add := func(msg string) []string {
		if len(fails) < 40 {
			fails = append(fails, msg)
		}
		return fails
	}
	for _, op := range ops {
		k := fileKey{op.vol, op.ino}
		switch op.kind {
		case 'c':
			if !intent[k] && !sys.FileExists(op.vol, op.ino) {
				fails = add(fmt.Sprintf("%s: acked create vol%d ino%d lost", label, op.vol, op.ino))
			}
		case 'd':
			if sys.FileExists(op.vol, op.ino) {
				fails = add(fmt.Sprintf("%s: acked delete vol%d ino%d resurrected", label, op.vol, op.ino))
			}
		case 'w':
			if intent[k] {
				continue
			}
			for b := 0; b < op.n; b++ {
				if err := sys.VerifyAgainst(op.vol, op.ino, op.fbn+wafl.FBN(b)); err != nil {
					fails = add(fmt.Sprintf("%s: acked write lost: %v", label, err))
					break
				}
			}
		}
	}
	// Snapshot images: an acked create must exist (unless its delete was at
	// least issued) and serve exactly the frozen base-file image — the
	// oracle payload where the owner had written, holes everywhere else. An
	// acked delete must stay deleted across recovery.
	for _, s := range ack.snaps {
		k := snapKey{s.vol, s.id}
		if ack.delAcked[k] {
			if sys.SnapshotExists(s.vol, s.id) {
				fails = add(fmt.Sprintf("%s: acked snap delete vol%d id%d resurrected", label, s.vol, s.id))
			}
			continue
		}
		if !sys.SnapshotExists(s.vol, s.id) {
			if !ack.delIntent[k] {
				fails = add(fmt.Sprintf("%s: acked snapshot vol%d id%d lost", label, s.vol, s.id))
			}
			continue
		}
		bad := false
		for fbn := range s.image {
			if err := sys.SnapVerifyAgainst(s.vol, s.id, s.baseIno, fbn, true); err != nil {
				fails = add(fmt.Sprintf("%s: snap image: %v", label, err))
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		// Hole direction: probe a few unwritten blocks inside the base
		// file's span.
		probed := 0
		for fbn := wafl.FBN(0); probed < sampleHoles && fbn < wafl.FBN(ack.baseBlocks); fbn++ {
			if s.image[fbn] {
				continue
			}
			if err := sys.SnapVerifyAgainst(s.vol, s.id, s.baseIno, fbn, false); err != nil {
				fails = add(fmt.Sprintf("%s: snap image: %v", label, err))
				break
			}
			probed++
		}
	}
	return fails
}

// sampleHoles is how many unwritten base-file blocks each snapshot-image
// verification probes for the hole direction.
const sampleHoles = 8

// verifyFn checks one recovery leg against an oracle, appending failures.
type verifyFn func(sys *wafl.System, label string, fails []string) []string

// ackedVerifier adapts a frozen ackLog to the pluggable verifier shape.
func ackedVerifier(acked *ackLog) verifyFn {
	return func(sys *wafl.System, label string, fails []string) []string {
		return verifyAcked(sys, acked, label, fails)
	}
}

// crashCycle performs the full per-crash-point check on a halted system:
// crash → recover → verify + fsck, immediately crash the recovered system
// again (double crash, before it runs) → recover → verify + fsck, then let
// it quiesce and verify the final committed image. Returns the surviving
// failure list and the final system (for Shutdown), which may be nil if
// recovery itself failed.
func crashCycle(sys *wafl.System, verify verifyFn, label string, fails []string) ([]string, *wafl.System) {
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		return append(fails, fmt.Sprintf("%s: recovery failed: %v", label, err)), nil
	}
	fails = verify(rec, label+"/recover", fails)
	if r := rec.Fsck(); !r.OK() {
		fails = append(fails, fmt.Sprintf("%s/recover: %s", label, r))
	}

	// Double crash: the recovered system loses power again before a single
	// event runs. Everything acknowledged before the first crash must
	// still be protected by the recovered NVRAM log.
	rec.Crash()
	rec2, err := rec.Recover()
	if err != nil {
		return append(fails, fmt.Sprintf("%s: double-crash recovery failed: %v", label, err)), nil
	}
	fails = verify(rec2, label+"/double", fails)
	if r := rec2.Fsck(); !r.OK() {
		fails = append(fails, fmt.Sprintf("%s/double: %s", label, r))
	}

	// Drain the replayed state to disk and check the committed image.
	if err := rec2.Quiesce(); err != nil {
		fails = append(fails, fmt.Sprintf("%s: quiesce: %v", label, err))
	}
	fails = verify(rec2, label+"/quiesced", fails)
	if r := rec2.Fsck(); !r.OK() {
		fails = append(fails, fmt.Sprintf("%s/quiesced: %s", label, r))
	}
	return fails, rec2
}

// runWorkload advances sys until every client finished (or the segment
// budget runs out). Returns false on timeout.
func runWorkload(sys *wafl.System, cfg CrashSweepConfig, ack *ackLog) bool {
	for i := 0; i < 64 && ack.done < cfg.Clients; i++ {
		sys.Run(cfg.MaxRun)
	}
	return ack.done >= cfg.Clients
}

// CrashSweep runs the crash-schedule sweep described by cfg — once per
// entry of cfg.Modes (ParallelCP on/off) — and returns a rendered table
// plus the machine-readable result.
func CrashSweep(cfg CrashSweepConfig) (Table, CrashSweepResult, error) {
	var res CrashSweepResult
	tab := Table{
		ID:      "crashsweep",
		Title:   "systematic crash/recovery verification (§II-C contract)",
		Headers: []string{"seed", "mode", "points", "acked ops", "failures"},
	}
	modes := cfg.Modes
	if len(modes) == 0 {
		modes = []bool{cfg.Base.Allocator.ParallelCP}
	}
	if cfg.Points == 0 && cfg.Phases == 0 {
		modes = nil // clone-ops/overload-only invocation: skip the baselines
	}
	for _, parallel := range modes {
		cfg := cfg
		cfg.Base.Allocator.ParallelCP = parallel
		modeTag := "serial-cp"
		if parallel {
			modeTag = "parallel-cp"
		}
		if err := crashSweepMode(cfg, modeTag, &tab, &res); err != nil {
			return tab, res, err
		}
	}
	if cfg.Overload {
		if err := overloadCrashPoint(cfg, &tab, &res); err != nil {
			return tab, res, err
		}
	}
	if cfg.ClonePoints > 0 {
		if err := cloneCrashPoints(cfg, &tab, &res); err != nil {
			return tab, res, err
		}
	}

	for _, f := range res.Failures {
		tab.Notes = append(tab.Notes, "FAIL "+f)
	}
	if res.OK() {
		tab.Notes = append(tab.Notes,
			fmt.Sprintf("%d crash points: recovery + double-crash recovery all verified", res.PointsRun))
	}
	return tab, res, nil
}

// overloadCrashPoint builds a system with a small NVRAM log and admission
// control tuned to shed readily, drives it with hammering bulk writers
// (plus occasional latency-sensitive writes), runs until the controller is
// observed actively shedding, and crashes it right there. The ack log
// records a bulk write only when WriteBulk admitted it, so verification
// proves the shed-load crash contract: every admitted write replays, and
// nothing that was shed leaks into the recovered image.
func overloadCrashPoint(cfg CrashSweepConfig, tab *Table, res *CrashSweepResult) error {
	c := cfg.Base
	if len(cfg.Seeds) > 0 {
		c.Seed = cfg.Seeds[0]
	}
	c.NVRAMHalfBytes = 256 << 10
	c.Admission = wafl.DefaultAdmission()
	// Shed after two delay rounds: the point exists to crash mid-shed, so
	// the controller must reach the shed tier quickly and repeatedly.
	c.Admission.MaxDelay = 2 * c.Admission.DelayStep
	sys, err := wafl.NewSystem(c)
	if err != nil {
		return err
	}
	base := make([]uint64, cfg.Clients)
	for i := range base {
		base[i] = sys.CreateFileDirect(i%c.Volumes, uint64(cfg.BaseBlocks))
	}
	if err := sys.Flush(); err != nil {
		sys.Shutdown()
		return fmt.Errorf("overload setup flush: %w", err)
	}
	ack := newAckLog()
	ack.baseBlocks = cfg.BaseBlocks
	for i := 0; i < cfg.Clients; i++ {
		vol := i % c.Volumes
		ino := base[i]
		sys.ClientThread(fmt.Sprintf("overload-%d", i), func(cc *wafl.ClientCtx) {
			for cc.Alive() {
				fbn := wafl.FBN(cc.Rand(cfg.BaseBlocks - 16))
				if cc.Rand(4) == 0 {
					cc.Write(vol, ino, fbn, 2)
					ack.ops = append(ack.ops, ackOp{'w', vol, ino, fbn, 2})
				} else if _, ok := cc.WriteBulk(vol, ino, fbn, 16); ok {
					ack.ops = append(ack.ops, ackOp{'w', vol, ino, fbn, 16})
				}
			}
		})
	}
	const label = "overload@shed"
	shedding := false
	for i := 0; i < 256 && !shedding; i++ {
		sys.Run(2 * wafl.Millisecond)
		if shed, _ := sys.AdmissionStats(); shed > 0 {
			shedding = true
		}
	}
	if shedding {
		// Run deeper into the shed regime so the crash lands with a real
		// mix of admitted-during-shedding and refused ops in flight.
		sys.Run(10 * wafl.Millisecond)
	}
	failsBefore := len(res.Failures)
	if !shedding {
		res.Failures = append(res.Failures, label+": admission never shed; crash point not reached")
		sys.Shutdown()
	} else {
		var final *wafl.System
		res.Failures, final = crashCycle(sys, ackedVerifier(ack.freeze()), label, res.Failures)
		res.PointsRun++
		if final != nil {
			final.Shutdown()
		} else {
			sys.Shutdown()
		}
	}
	tab.Rows = append(tab.Rows, []string{
		fmt.Sprintf("%d", c.Seed), "overload-shed", "1",
		fmt.Sprintf("%d", len(ack.ops)), fmt.Sprintf("%d", len(res.Failures)-failsBefore),
	})
	return nil
}

// crashSweepMode runs the full event-index + phase-boundary schedule for
// one ParallelCP mode, appending rows to tab and failures to res.
func crashSweepMode(cfg CrashSweepConfig, modeTag string, tab *Table, res *CrashSweepResult) error {
	for _, seed := range cfg.Seeds {
		// Baseline: learn the crashable event-index span [e0, e1].
		sys, ack, e0, err := buildSweepSystem(cfg, seed)
		if err != nil {
			return err
		}
		if !runWorkload(sys, cfg, ack) {
			sys.Shutdown()
			return fmt.Errorf("seed %d (%s): baseline workload did not finish", seed, modeTag)
		}
		e1 := sys.Events()
		totalOps := len(ack.ops)
		sys.Shutdown()
		if e1 <= e0+1 {
			return fmt.Errorf("seed %d (%s): empty crashable region [%d,%d]", seed, modeTag, e0, e1)
		}

		// Event-index sweep: evenly spaced points strictly inside (e0, e1).
		failsBefore := len(res.Failures)
		for i := 0; i < cfg.Points; i++ {
			k := e0 + uint64(i+1)*(e1-e0)/uint64(cfg.Points+1)
			label := fmt.Sprintf("seed%d@event%d/%s", seed, k, modeTag)
			sys, ack, _, err := buildSweepSystem(cfg, seed)
			if err != nil {
				return err
			}
			if !sys.RunToEvent(k, 128*cfg.MaxRun) {
				sys.Shutdown()
				res.Failures = append(res.Failures, fmt.Sprintf("%s: halt not reached", label))
				continue
			}
			var final *wafl.System
			res.Failures, final = crashCycle(sys, ackedVerifier(ack.freeze()), label, res.Failures)
			res.PointsRun++
			if final != nil {
				final.Shutdown()
			} else {
				sys.Shutdown()
			}
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", seed), "event-index/" + modeTag, fmt.Sprintf("%d", cfg.Points),
			fmt.Sprintf("%d", totalOps), fmt.Sprintf("%d", len(res.Failures)-failsBefore),
		})
	}

	// CP phase-boundary sweep on the first seed: crash exactly at the j-th
	// phase boundary hit, for j = 1..Phases.
	if cfg.Phases > 0 && len(cfg.Seeds) > 0 {
		seed := cfg.Seeds[0]
		failsBefore := len(res.Failures)
		points := 0
		for j := 1; j <= cfg.Phases; j++ {
			sys, ack, _, err := buildSweepSystem(cfg, seed)
			if err != nil {
				return err
			}
			hits, target := 0, j
			var phaseName string
			sys.SetCPPhaseHook(func(phase string) bool {
				hits++
				if hits == target {
					phaseName = phase
					sys.RequestHalt()
					return true
				}
				return false
			})
			halted := false
			for i := 0; i < 64 && ack.done < cfg.Clients; i++ {
				sys.Run(cfg.MaxRun)
				if sys.Halted() {
					halted = true
					break
				}
			}
			if !halted {
				// The workload finished before its j-th boundary: the
				// phase space is exhausted.
				sys.Shutdown()
				break
			}
			label := fmt.Sprintf("seed%d@phase%d(%s)/%s", seed, j, phaseName, modeTag)
			var final *wafl.System
			res.Failures, final = crashCycle(sys, ackedVerifier(ack.freeze()), label, res.Failures)
			res.PointsRun++
			points++
			if final != nil {
				final.Shutdown()
			} else {
				sys.Shutdown()
			}
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", seed), "cp-phase/" + modeTag, fmt.Sprintf("%d", points),
			"-", fmt.Sprintf("%d", len(res.Failures)-failsBefore),
		})
	}
	return nil
}

// The clone-ops crash script writes four disjoint FBN spans of one base
// file so every recovery leg can attribute each block to a script step:
// the frozen image (pre-snapshot), parent churn (post-snapshot, reverted
// by SnapRestore), clone-side divergence, and post-restore writes.
const (
	cloneImgBlocks  = 64 // fbn 0..63: pre-snapshot writes, the frozen image
	cloneChurnBase  = 64 // fbn 64..95: post-snapshot parent churn
	cloneChurnSpan  = 32 //   (block 64 doubles as the restore-leg probe)
	cloneWriteBase  = 96 // fbn 96..111: clone-side divergence after the bind
	cloneWriteSpan  = 16
	clonePostBase   = 128 // fbn 128..135: parent writes after the restore ack
	clonePostSpan   = 8
	cloneSampleStep = 8 // image sampling stride for per-leg verification
)

// cloneAckState is the clone-window script's acknowledged progress, copied
// by value at the instant of the crash so verification sees exactly the
// contract the crashed system had acknowledged.
type cloneAckState struct {
	vol, cloneVol           int
	ino, snapID             uint64
	churnAcked              int // churn blocks acked before the crash
	cloneAcked              int // clone-divergence blocks acked
	postAcked               int // post-restore blocks acked
	cloneIssued, splitAcked bool
	restoreIssued, restored bool
	done                    bool
}

// cloneVerifier builds the per-leg oracle for one clone-ops crash point.
func cloneVerifier(st cloneAckState) verifyFn {
	return func(sys *wafl.System, label string, fails []string) []string {
		add := func(msg string) {
			if len(fails) < 40 {
				fails = append(fails, fmt.Sprintf("%s: %s", label, msg))
			}
		}
		quiesced := strings.HasSuffix(label, "/quiesced")

		// The snapshot was acked before the window opened: it must exist on
		// every leg and still serve its exact frozen image (data inside the
		// image span, a hole where only post-snapshot churn wrote).
		if !sys.SnapshotExists(st.vol, st.snapID) {
			add(fmt.Sprintf("acked snapshot %d lost", st.snapID))
		} else {
			for fbn := wafl.FBN(0); fbn < cloneImgBlocks; fbn += cloneSampleStep {
				if err := sys.SnapVerifyAgainst(st.vol, st.snapID, st.ino, fbn, true); err != nil {
					add(fmt.Sprintf("snapshot image: %v", err))
					break
				}
			}
			if err := sys.SnapVerifyAgainst(st.vol, st.snapID, st.ino, cloneChurnBase, false); err != nil {
				add(fmt.Sprintf("snapshot image: %v", err))
			}
		}

		// Parent, image span: in the snapshot and never deleted, so it is
		// data whether or not the revert committed.
		for fbn := wafl.FBN(0); fbn < cloneImgBlocks; fbn += cloneSampleStep {
			if err := sys.VerifyAgainst(st.vol, st.ino, fbn); err != nil {
				add(fmt.Sprintf("parent image span: %v", err))
				break
			}
		}

		// Parent, churn span: the probe block decides which restore leg this
		// recovery landed on — a hole iff the revert committed. An acked
		// restore must have committed, and whichever leg holds, the whole
		// churn span must agree with the probe: that is the all-or-nothing
		// check on SnapRestore.
		restored := sys.VerifyRead(st.vol, st.ino, cloneChurnBase) == nil
		if st.restored && !restored {
			add("acked SnapRestore lost")
		}
		if !st.restoreIssued && restored {
			add("restore applied but never issued")
		}
		for b := 0; b < st.churnAcked; b++ {
			fbn := wafl.FBN(cloneChurnBase + b)
			if restored {
				if sys.VerifyRead(st.vol, st.ino, fbn) != nil {
					add(fmt.Sprintf("torn restore: churn fbn %d survived the revert", fbn))
					break
				}
			} else if err := sys.VerifyAgainst(st.vol, st.ino, fbn); err != nil {
				add(fmt.Sprintf("torn restore: %v", err))
				break
			}
		}
		for b := 0; b < st.postAcked; b++ {
			if err := sys.VerifyAgainst(st.vol, st.ino, wafl.FBN(clonePostBase+b)); err != nil {
				add(fmt.Sprintf("acked post-restore write lost: %v", err))
				break
			}
		}

		// Clone content: the frozen image plus the acked divergence writes,
		// and none of the parent's post-snapshot churn. Holds at the same
		// address whether the clone is still summary-held or a completed
		// split already promoted it to a normal volume.
		checkClone := func(cv, cloneWrites int) {
			for fbn := wafl.FBN(0); fbn < cloneImgBlocks; fbn += cloneSampleStep {
				if err := sys.VerifyAgainst(cv, st.ino, fbn); err != nil {
					add(fmt.Sprintf("clone base image: %v", err))
					return
				}
			}
			if sys.VerifyRead(cv, st.ino, cloneChurnBase) != nil {
				add("clone leaked post-snapshot parent churn")
			}
			for b := 0; b < cloneWrites; b++ {
				if err := sys.VerifyAgainst(cv, st.ino, wafl.FBN(cloneWriteBase+b)); err != nil {
					add(fmt.Sprintf("acked clone write lost: %v", err))
					return
				}
			}
		}
		if st.cloneVol >= 0 {
			// The create acked, so the bind had committed: the clone serves
			// its contract on every leg, including after the parent restore.
			checkClone(st.cloneVol, st.cloneAcked)
		} else if st.cloneIssued {
			// Issued but unacked: the logged intent may have replayed. Any
			// clone recovery surfaces must be pending or bound — and once
			// bound (mandatory after quiesce) it serves exactly the frozen
			// image, since no divergence write was issued before the ack.
			for _, cv := range sys.CloneVolumes() {
				if !sys.CloneBound(cv) {
					if quiesced {
						add(fmt.Sprintf("replayed clone %d still unbound after quiesce", cv))
					}
					continue
				}
				checkClone(cv, 0)
			}
		}
		return fails
	}
}

// cloneCrashPoints runs the scripted clone window once per boundary index
// j = 1..ClonePoints, crashing at the j-th CP phase boundary hit after the
// window opens and driving the full crash → double-crash → quiesce cycle
// against the clone oracle.
func cloneCrashPoints(cfg CrashSweepConfig, tab *Table, res *CrashSweepResult) error {
	c := cfg.Base
	if len(cfg.Seeds) > 0 {
		c.Seed = cfg.Seeds[0]
	}
	c.CloneSlots = 2
	failsBefore := len(res.Failures)
	ran := 0
	for j := 1; j <= cfg.ClonePoints; j++ {
		sys, err := wafl.NewSystem(c)
		if err != nil {
			return err
		}
		ino := sys.CreateFileDirect(0, 256)
		if err := sys.Flush(); err != nil {
			sys.Shutdown()
			return fmt.Errorf("cloneops setup flush: %w", err)
		}
		st := &cloneAckState{vol: 0, cloneVol: -1, ino: ino}
		window := false
		sys.ClientThread("cloneops", func(cc *wafl.ClientCtx) {
			cc.Write(st.vol, ino, 0, cloneImgBlocks)
			st.snapID = cc.SnapCreate(st.vol)
			for b := 0; b < cloneChurnSpan; b++ {
				cc.Write(st.vol, ino, wafl.FBN(cloneChurnBase+b), 1)
				st.churnAcked++
			}
			window = true
			st.cloneIssued = true
			if cv, ok := cc.CloneCreate(st.vol, st.snapID); ok {
				st.cloneVol = cv
				for b := 0; b < cloneWriteSpan; b++ {
					cc.Write(cv, ino, wafl.FBN(cloneWriteBase+b), 1)
					st.cloneAcked++
				}
				if cc.CloneSplit(cv) {
					st.splitAcked = true
				}
			}
			st.restoreIssued = true
			if cc.SnapRestore(st.vol, st.snapID) {
				st.restored = true
				for b := 0; b < clonePostSpan; b++ {
					cc.Write(st.vol, ino, wafl.FBN(clonePostBase+b), 1)
					st.postAcked++
				}
			}
			st.done = true
		})
		hits, target := 0, j
		sys.SetCPPhaseHook(func(phase string) bool {
			if !window {
				return false
			}
			hits++
			if hits == target {
				sys.RequestHalt()
				return true
			}
			return false
		})
		halted := false
		for i := 0; i < 64 && !halted; i++ {
			sys.Run(cfg.MaxRun)
			halted = sys.Halted()
			if st.done && !halted {
				// The script finished; give the tail CPs (split completion,
				// final commits) a few more segments to reach boundary j,
				// then treat the window's boundary space as exhausted.
				for k := 0; k < 4 && !halted; k++ {
					sys.Run(cfg.MaxRun)
					halted = sys.Halted()
				}
				break
			}
		}
		if !halted {
			sys.Shutdown()
			break
		}
		label := fmt.Sprintf("cloneops@boundary%d", j)
		var final *wafl.System
		res.Failures, final = crashCycle(sys, cloneVerifier(*st), label, res.Failures)
		res.PointsRun++
		ran++
		if final != nil {
			final.Shutdown()
		} else {
			sys.Shutdown()
		}
	}
	tab.Rows = append(tab.Rows, []string{
		fmt.Sprintf("%d", c.Seed), "clone-ops", fmt.Sprintf("%d", ran),
		"-", fmt.Sprintf("%d", len(res.Failures)-failsBefore),
	})
	return nil
}
