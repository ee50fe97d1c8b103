// Package wafl is the public facade of a simulation-faithful reproduction
// of the WAFL file system's White Alligator write allocator ("Scalable
// Write Allocation in the WAFL File System", Curtis-Maury, Kesavan &
// Bhattacharjee, ICPP 2017).
//
// A System is a complete simulated storage server: a many-core CPU model,
// one or more cluster Members — each a RAID aggregate with FlexVol
// volumes, an NVRAM log partition, a Hierarchical Waffinity message
// scheduler, the White Alligator write allocation infrastructure with its
// pool of parallel cleaner threads, and a consistency-point engine — and a
// FlexGroup-style router that stripes files and volumes across members.
// Client workloads drive it through ClientThread sessions; Measure reports
// throughput, latency, and per-component simulated core usage — the same
// metrics the paper's instrumented kernels report.
//
// With Config.Members <= 1 the System is a single aggregate, bit-identical
// to the pre-cluster code. With N members, volumes are addressed by a
// global index (member = vol / Config.Volumes), file handles embed their
// owning constituent id (routing is stateless after create), and each
// member keeps its own CP cadence and crash domain.
//
// Quick start:
//
//	sys, _ := wafl.NewSystem(wafl.DefaultConfig())
//	ino := sys.CreateFileDirect(0, 8192)
//	sys.ClientThread("writer", func(c *wafl.ClientCtx) {
//	    for i := 0; c.Alive(); i++ {
//	        c.Write(0, ino, wafl.FBN((i*8)%8000), 8)
//	    }
//	})
//	res := sys.Measure(100*wafl.Millisecond, wafl.Second)
//	fmt.Println(res)
package wafl

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"wafl/internal/aggregate"
	"wafl/internal/bcache"
	"wafl/internal/block"
	"wafl/internal/core"
	"wafl/internal/cp"
	"wafl/internal/faultinject"
	"wafl/internal/fs"
	"wafl/internal/nvlog"
	"wafl/internal/obs"
	"wafl/internal/raid"
	"wafl/internal/sim"
	"wafl/internal/storage"
	"wafl/internal/waffinity"
)

// Re-exported simulation types, so library users never import internal
// packages directly.
type (
	// Duration is simulated time in nanoseconds.
	Duration = sim.Duration
	// Time is a point in simulated time.
	Time = sim.Time
	// FBN is a file block number.
	FBN = block.FBN
	// AllocatorOptions configures White Alligator (chunk size, parallelism
	// knobs, batching, dynamic tuning, ablation switches).
	AllocatorOptions = core.Options
	// CostModel holds the simulated CPU service demands.
	CostModel = core.CostModel
	// AAPolicy selects the Allocation Area selection policy.
	AAPolicy = core.AAPolicy
	// Tracer records the timeline: trace events, forensic notes and
	// Chrome-trace export. Nil when tracing is off.
	Tracer = obs.Tracer
	// Event is one buffered trace event; determinism tests compare whole
	// streams of these across runs.
	Event = obs.Event
	// TraceHistogram is one log-linear latency histogram, as Stats keeps them.
	TraceHistogram = obs.Histogram
	// FaultConfig selects the deterministic drive-fault plan (torn writes,
	// dropped/delayed completions, transient read errors) for crash tests.
	FaultConfig = faultinject.Config
	// FaultInjector is the wired fault plan; obtain it via Injector.
	FaultInjector = faultinject.Injector
	// FaultStats is a snapshot of fault-injection decisions.
	FaultStats = faultinject.Stats
	// RepairStats counts fault repairs on the raw read path (retries of
	// transient errors, RAID reconstructions of persistent ones).
	RepairStats = aggregate.RepairStats
	// BCacheStats is a snapshot of the buffer-cache counters
	// (hits/misses/evictions/resident blocks).
	BCacheStats = bcache.Stats
	// InfraCounters is the allocator infrastructure's cumulative counter set.
	InfraCounters = core.InfraStats
	// CPStats is the consistency-point engine's cumulative counter set.
	CPStats = cp.Stats
	// PoolStats is the cleaner-thread pool's cumulative counter set.
	PoolStats = core.PoolStats
	// RAIDStats counts stripe writes and parity work in one RAID group.
	RAIDStats = raid.Stats
	// DriveStats counts one drive's I/Os, blocks, busy time and fault outcomes.
	DriveStats = storage.Stats
	// WaffinityStats counts affinity messages sent and executed.
	WaffinityStats = waffinity.Stats
	// SchedStats is the shared scheduler's run-queue, mutex and wait-queue
	// waits.
	SchedStats = sim.Stats
	// ImageStats counts the aggregate's recycled CP-owned block images.
	ImageStats = fs.ImageStats
)

// NewHistogram creates a standalone log-linear latency histogram for
// callers that keep their own metric state (e.g. the open-loop workload's
// per-class sojourn-time distributions).
func NewHistogram(name string) *TraceHistogram { return obs.NewHistogram(name) }

// Allocation Area policies (re-exported).
const (
	AAMostFree   = core.AAMostFree
	AAFirstFit   = core.AAFirstFit
	AARoundRobin = core.AARoundRobin
)

// Re-exported duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DriveClass selects a drive service-time model.
type DriveClass int

// Drive classes used by the paper's three testbeds.
const (
	SSD DriveClass = iota // all-SSD mid-range system (§V-A)
	FlashPool
	HDD
)

func (d DriveClass) profile() storage.Profile {
	switch d {
	case HDD:
		return storage.HDD
	case FlashPool:
		return storage.FlashPool
	default:
		return storage.SSD
	}
}

// Config describes a simulated storage server.
type Config struct {
	// Cores is the simulated CPU count per member (the paper's testbeds
	// have 20); a cluster models Cores × Members cores in total.
	Cores int
	// Seed drives all simulation randomness; same seed, same run.
	Seed int64

	// Members is the cluster width: the number of constituent aggregates
	// the namespace is striped across. 0 or 1 selects a single-member
	// system, bit-identical to the pre-cluster single-aggregate code.
	// Every member gets its own aggregate (the geometry below), its own
	// Volumes volumes, and its own NVRAM log partition; volumes are
	// addressed globally as member*Volumes + localVol.
	Members int

	// Aggregate geometry (per member).
	Drives      DriveClass
	RAIDGroups  int
	DataDrives  int // per group, excluding parity
	DriveBlocks uint64
	AAStripes   uint64

	// Volumes (per member).
	Volumes      int
	VolumeBlocks uint64

	// CloneSlots pre-provisions, per member, this many extra volumes usable
	// only as writable clones (CloneCreate binds one to a parent snapshot).
	// Clone volumes are addressed globally above the client volumes: clone
	// slot s of member m is Members*Volumes + m*CloneSlots + s. 0 (the
	// default) disables clones and keeps the system bit-identical to the
	// pre-clone code. Slots are not recycled: a split-or-deleted clone's
	// slot stays consumed for the System's lifetime.
	CloneSlots int

	// NVRAMHalfBytes sizes each NVRAM log half (per member); the CP
	// cadence follows from it.
	NVRAMHalfBytes uint64

	// StripesPerVolume and RangesPerVBN size the Waffinity hierarchy.
	StripesPerVolume int
	RangesPerVBN     int

	// PayloadBytes is how many bytes of real pattern data each 4 KiB
	// block write carries; the rest of the block reads as zeros and is
	// never materialised (DESIGN.md §14), so the host memory a written
	// block occupies in buffers, on the drive media and in its share of
	// parity, and the host work of copying and XOR-ing it, scale with this
	// value. Simulated costs do not: NVRAM, drive and CPU accounting
	// always charge a full block, and every simulated metric is identical
	// for any PayloadBytes. Use 4096 when byte-exact verification of whole
	// blocks matters.
	PayloadBytes int

	// Trace records the timeline: structured trace events, exportable as
	// Chrome trace JSON (WriteTrace). The latency histograms are Stats
	// fields either way. Tracing never changes simulation results — runs
	// are bit-identical with it on or off.
	Trace bool
	// TraceEvents bounds the trace ring buffer (events, not bytes); zero
	// selects the default capacity. Oldest events drop first.
	TraceEvents int

	// Faults configures deterministic drive-fault injection (crash-schedule
	// testing). The zero value disables every fault arm; injection never
	// runs during initial format, so a fresh System is always mountable.
	// Each member gets its own injector wired to its own drives.
	Faults FaultConfig

	// BCacheBlocks sizes each member's buffer cache, in 4 KiB blocks: its
	// residency set, which alone decides what a client read pays (DESIGN
	// §15). 0 leaves the set unbounded: a block stays resident from its
	// first write or read until its file is deleted or restored or the
	// member crashes, at a bit per block in its file's tree. With a cache,
	// client reads and writes occupy it with LRU eviction. Either way a read
	// outside the set pays a timed media I/O — the CAWL-style regime split
	// between below-cache-capacity fast paths and eviction-limited steady
	// state — and a resident block's content is its buffer while it is dirty
	// or in a CP, else its media image.
	BCacheBlocks int

	// Admission configures NVLog watermark-based admission control for
	// bulk-class writes. The zero value disables it.
	Admission AdmissionConfig

	Allocator AllocatorOptions
	Costs     CostModel
}

// AdmissionConfig is the per-class QoS policy: latency-sensitive writes are
// always admitted, while bulk writes are delayed and eventually shed as the
// NVRAM active half fills, at the watermarks of member.go (admitDelayAt and
// the constants beside it).
type AdmissionConfig struct {
	// Enabled turns the gate on.
	Enabled bool
}

// DefaultConfig returns a configuration modelling the paper's mid-range
// testbed: 20 cores, an all-SSD aggregate of two RAID groups, four volumes,
// one member.
func DefaultConfig() Config {
	return Config{
		Cores:            20,
		Seed:             1,
		Members:          1,
		Drives:           SSD,
		RAIDGroups:       2,
		DataDrives:       4,
		DriveBlocks:      65536,
		AAStripes:        2048,
		Volumes:          4,
		VolumeBlocks:     1 << 17,
		NVRAMHalfBytes:   24 << 20,
		StripesPerVolume: 16,
		RangesPerVBN:     8,
		PayloadBytes:     64,
		Allocator:        core.DefaultOptions(),
		Costs:            core.DefaultCosts(),
	}
}

// System is a running simulated storage server: a cluster of one or more
// Members sharing one discrete-event scheduler, fronted by a router that
// stripes the namespace across them.
type System struct {
	cfg     Config
	s       *sim.Scheduler
	members []*Member

	threadMark int // first sim thread belonging to this System
	stopped    bool
}

// NewSystem builds and formats a simulated storage server.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("wafl: need at least one core")
	}
	if cfg.Members < 0 || cfg.Members >= 1<<16 {
		return nil, fmt.Errorf("wafl: Members must be in [0, 65535], got %d", cfg.Members)
	}
	if cfg.Members < 1 {
		cfg.Members = 1
	}
	s := sim.New(cfg.Cores*cfg.Members, cfg.Seed)
	if cfg.Trace {
		s.SetTracer(obs.New(obs.Options{Capacity: cfg.TraceEvents}))
	}
	sys := &System{cfg: cfg, s: s, threadMark: s.ThreadMark()}
	sys.viewHistograms()
	for i := 0; i < cfg.Members; i++ {
		m, err := buildMember(sys, i)
		if err != nil {
			return nil, err
		}
		sys.members = append(sys.members, m)
	}
	// Commit an initial (empty) CP on every member so the media always
	// carries a valid superblock — a freshly formatted system must be
	// mountable even if it crashes before any client-triggered CP.
	for _, m := range sys.members {
		m.engine.RequestCP()
	}
	for i := 0; i < 100 && !sys.allFormatted(); i++ {
		s.RunFor(10 * sim.Millisecond)
	}
	if !sys.allFormatted() {
		return nil, fmt.Errorf("wafl: initial consistency point did not complete")
	}
	// Wire fault injection only after the initial format committed: a
	// fresh system must always be mountable. The wiring point is fixed, so
	// identical configs still yield identical event streams.
	if cfg.Faults.Enabled() {
		for _, m := range sys.members {
			m.inj = faultinject.New(cfg.Faults)
			m.a.SetInjector(m.inj)
		}
	}
	return sys, nil
}

// allFormatted reports whether every member has committed its initial CP.
func (sys *System) allFormatted() bool {
	for _, m := range sys.members {
		if m.a.CPCount() == 0 {
			return false
		}
	}
	return true
}

// Members returns the cluster width (the number of constituent
// aggregates).
func (sys *System) Members() int { return len(sys.members) }

// TotalVolumes returns the number of globally addressable volumes:
// Config.Volumes per member times the cluster width.
func (sys *System) TotalVolumes() int { return sys.cfg.Volumes * len(sys.members) }

// MemberInfo is the point-in-time state of one cluster member that is not a
// counter (those are MemberStats), for monitoring tools (wafltop's
// per-member section).
type MemberInfo struct {
	ID            int
	NVLogFullness float64 // active NVRAM half fullness [0, 1]
	Crashed       bool
}

// MemberInfo returns the current summary of member i.
func (sys *System) MemberInfo(i int) MemberInfo {
	m := sys.members[i]
	return MemberInfo{ID: m.id, NVLogFullness: m.log.Fullness(), Crashed: m.crashed}
}

// Stats returns every layer's cumulative counters, rolled up across members.
// Results.Stats is the same value over a measurement window.
func (sys *System) Stats() Stats {
	var t Stats
	for _, m := range sys.members {
		foldInto(opAdd, &t, m.stats())
	}
	foldInto(opAdd, &t.Sched, sys.s.Stats())
	return t
}

// viewHistograms makes sys's Stats the tracer's Histograms.
func (sys *System) viewHistograms() {
	sys.s.Tracer().SetHistograms(func() []*obs.Histogram { return histsOf(sys.Stats()) })
}

// MemberStats returns member i's share of Stats.
func (sys *System) MemberStats(i int) Stats { return sys.members[i].stats() }

// The seven accessors below, and the tracer's Histograms (set in NewSystem),
// are views of Stats kept, with their signatures, for bench/child.go; they go
// when a benchmark PR lets it read Stats (Each) instead. arch_test.go's stat
// rule keeps every other caller on Stats.

// TraceReport renders Stats: every counter, and every histogram by the name
// the tracer once kept it under.
func (sys *System) TraceReport() string { return sys.Stats().String() }

// CPPhaseReport renders each member's CP counters and duration histograms.
func (sys *System) CPPhaseReport() string {
	return sys.perMember(func(m *Member) string { return Stats{CP: m.stats().CP}.String() + "\n" })
}

// BCacheStats returns the buffer-cache counters summed across members
// (all zero when Config.BCacheBlocks is 0).
func (sys *System) BCacheStats() BCacheStats { return sys.Stats().BCache }

// AdmissionStats returns cluster-wide admission-control activity: bulk
// writes shed and cumulative bulk delay time.
func (sys *System) AdmissionStats() (shed uint64, delay Duration) {
	st := sys.Stats().Admission
	return st.Shed, Duration(st.Delay.Sum)
}

// CPCount returns the number of committed consistency points (the
// aggregates' persistent CP generation), summed across members.
func (sys *System) CPCount() uint64 { return sys.Stats().CPCount }

// Counters returns a snapshot of the infrastructure counters for metric
// diffing around a measurement window (FillWords, GetWaits, ...), summed
// across members.
func (sys *System) Counters() InfraCounters { return sys.Stats().Infra }

// CPStats returns a snapshot of the CP engine counters for metric diffing
// around a measurement window (TotalDuration, BackToBack, ...). For a
// cluster the counters and durations sum across members; LastDuration and
// LongestDuration take the maximum.
func (sys *System) CPStats() CPStats { return sys.Stats().CP }

// placementLogPenalty weighs NVRAM occupancy against free-space fraction
// in the placement score: a member whose log is nearly full (a CP is
// imminent and incoming ops may stall) is penalized as if it had that much
// less free space.
const placementLogPenalty = 0.5

// PlaceFile picks the best member for a new file of up to sizeBlocks
// blocks — deterministic, capacity- and load-aware — and returns a global
// volume index on it. The score combines the member's allocatable-block
// fraction (from the hierarchical free-space index counters, net of ingest
// reservations) with its NVRAM log occupancy; ties break toward the lowest
// member id, and within the chosen member the volume with the most
// reservation-adjusted free space wins.
//
// Each placement charges sizeBlocks against the chosen volume as an ingest
// reservation, so a burst of placements on an idle cluster stripes across
// members instead of piling onto whichever one happened to score first:
// the free-space counters only move once the placed files are written, and
// the reservation stands in for that forthcoming usage.
func (sys *System) PlaceFile(sizeBlocks uint64) int {
	best, bestScore := 0, -1.0e300
	capacity := float64(sys.cfg.Volumes) * float64(sys.cfg.VolumeBlocks)
	for i, m := range sys.members {
		if m.crashed {
			continue
		}
		var free int64
		for v := 0; v < sys.cfg.Volumes; v++ {
			if f := m.in.VolFree(v) - m.reserved[v]; f > 0 {
				free += f
			}
		}
		score := float64(free)/capacity - placementLogPenalty*m.log.Fullness()
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	m := sys.members[best]
	bestVol, bestFree := 0, int64(-1<<62)
	for v := 0; v < sys.cfg.Volumes; v++ {
		if f := m.in.VolFree(v) - m.reserved[v]; f > bestFree {
			bestVol, bestFree = v, f
		}
	}
	m.reserved[bestVol] += int64(sizeBlocks)
	// The charge starts unbound; the next create on the volume binds it to
	// its inode (Member.bindPlacement), after which landed writes decay it
	// and a delete refunds the rest.
	m.pendingPlace[bestVol] = append(m.pendingPlace[bestVol], int64(sizeBlocks))
	return best*sys.cfg.Volumes + bestVol
}

// Run advances the simulation by d.
func (sys *System) Run(d Duration) { sys.s.RunFor(d) }

// Events returns the number of simulation events dispatched so far — the
// reproducible crash-point coordinate: with a fixed Config (including
// Seed), event index k names the same instant in every run.
func (sys *System) Events() uint64 { return sys.s.Events() }

// Switches returns how many of those events resumed a simulated thread other
// than the one that dispatched them — the part of the simulation's host cost
// that is switching coroutines. As reproducible as Events.
func (sys *System) Switches() uint64 { return sys.s.Switches() }

// RunToEvent advances the simulation until event index n has been
// dispatched, running at most max simulated time. It reports whether the
// halt was reached (false means the run drained or hit max first). The
// scheduler is stopped between events afterwards — the state Crash
// requires.
func (sys *System) RunToEvent(n uint64, max Duration) bool {
	sys.s.HaltAtEvent(n)
	sys.s.RunFor(max)
	sys.s.HaltAtEvent(0)
	return sys.s.Halted()
}

// RequestHalt asks the scheduler to stop before dispatching the next event.
// Call it from inside the simulation (e.g. a CP phase hook); the current
// Run returns once the running event finishes.
func (sys *System) RequestHalt() { sys.s.RequestHalt() }

// Halted reports whether the last Run stopped on a halt request rather
// than draining or reaching its time bound.
func (sys *System) Halted() bool { return sys.s.Halted() }

// SetCPPhaseHook installs fn to be called at every CP phase boundary
// ("start", "clean", "records", "metafiles", "voltable", "amap", "commit",
// "post-commit", "done") on every member. Returning true halts the
// scheduler at that boundary — pair with Crash for phase-targeted crash
// tests. A hook that returns false has no effect on the simulation.
func (sys *System) SetCPPhaseHook(fn func(phase string) bool) {
	for _, m := range sys.members {
		m.engine.SetPhaseHook(fn)
	}
}

// FileExists reports whether ino exists (and is not deleted) on vol.
func (sys *System) FileExists(vol int, ino uint64) bool {
	m, lv, li := sys.resolve(vol, ino)
	return m.a.Volume(lv).LookupFile(li) != nil
}

// Injector returns member 0's wired fault injector, or nil when
// Config.Faults is zero. Use it to install persistent per-block read
// errors (FailBlock).
func (sys *System) Injector() *faultinject.Injector { return sys.members[0].inj }

// Shutdown terminates every simulated thread so the whole system becomes
// garbage-collectable. Call it when done with a System (experiment harness
// loops leak goroutines otherwise). The System is unusable afterwards; do
// not Shutdown a crashed system you still intend to Recover from (recovery
// shares the scheduler).
func (sys *System) Shutdown() {
	sys.stopped = true
	for _, m := range sys.members {
		if m.tuner != nil {
			m.tuner.Stop()
		}
	}
	sys.s.Shutdown()
}

// Now returns the current simulated time.
func (sys *System) Now() Time { return sys.s.Now() }

// Tracer returns the observability tracer, or nil when Config.Trace is off.
func (sys *System) Tracer() *Tracer { return sys.s.Tracer() }

// WriteTrace writes the buffered trace events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. With tracing
// off it writes an empty, still-valid trace document.
func (sys *System) WriteTrace(w io.Writer) error {
	return sys.s.Tracer().WriteChromeTrace(w)
}

// Stop makes client loops exit at their next Alive check.
func (sys *System) Stop() { sys.stopped = true }

// TunerSamples returns member 0's dynamic tuner decision trace (nil when
// the tuner is off).
func (sys *System) TunerSamples() []core.TunerSample {
	if sys.members[0].tuner == nil {
		return nil
	}
	return sys.members[0].tuner.Samples
}

// Hierarchy renders the Waffinity affinity trees of all members.
func (sys *System) Hierarchy() string {
	return sys.perMember(func(m *Member) string { return m.h.String() })
}

// perMember concatenates text of every member, each after its label.
func (sys *System) perMember(text func(*Member) string) string {
	var b strings.Builder
	for _, m := range sys.members {
		b.WriteString(sys.label(m, "\n") + text(m))
	}
	return b.String()
}

// label is how reports name member m ahead of its part, sep after the name:
// nothing in a single-member system, whose reports read as they did before
// clusters.
func (sys *System) label(m *Member, sep string) string {
	if len(sys.members) == 1 {
		return ""
	}
	return fmt.Sprintf("member %d:%s", m.id, sep)
}

// ForceCP requests a consistency point on every member and returns
// immediately.
func (sys *System) ForceCP() {
	for _, m := range sys.members {
		m.engine.RequestCP()
	}
}

// Prewrite populates a file directly — no client protocol, no NVRAM — to
// age the file system before a measurement. With shuffle the blocks are
// written in random FBN order, so their physical locations scramble and the
// first overwrite wave already frees blocks scattered across the VBN space
// (the aged state a long-running random-write workload converges to).
// Call Flush afterwards to push the blocks to storage.
func (sys *System) Prewrite(vol int, ino uint64, blocks uint64, shuffle bool) {
	order := make([]uint64, blocks)
	for i := range order {
		order[i] = uint64(i)
	}
	if shuffle {
		sys.s.Rand().Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	sys.writeDirect(vol, ino, order, 0)
}

// AgeOverwrite dirties n random distinct blocks of the file's first span
// blocks without logging or timing (benchmark setup): combined with live
// snapshots, repeated overwrite rounds fragment the volume's free space the
// way months of production churn would. Call Flush between rounds so each
// round's frees land before the next scatters more.
func (sys *System) AgeOverwrite(vol int, ino uint64, n int, span uint64) {
	order := make([]uint64, span)
	for i := range order {
		order[i] = uint64(i)
	}
	sys.s.Rand().Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	sys.writeDirect(vol, ino, order[:min(n, len(order))], 1)
}

// writeDirect writes the blocks fbns of a file, in that order, without
// logging or timing: each is an OpWrite record applied like a replayed one.
func (sys *System) writeDirect(vol int, ino uint64, fbns []uint64, tag byte) {
	m, lv, li := sys.resolve(vol, ino)
	for _, fbn := range fbns {
		rec := nvlog.Record{Kind: nvlog.OpWrite, Vol: uint32(lv), Ino: li, FBN: FBN(fbn), Data: sys.payload(ino, FBN(fbn), tag)}
		if !m.apply(&rec) {
			panic(fmt.Sprintf("wafl: direct write to nonexistent ino %d", ino))
		}
	}
}

// SnapCreateDirect queues a snapshot create without logging or timing
// (benchmark setup); the next CP — e.g. a Flush — materializes it.
func (sys *System) SnapCreateDirect(vol int) uint64 {
	m, lv := sys.volMember(vol)
	rec := nvlog.Record{Kind: nvlog.OpSnapCreate, Vol: uint32(lv)}
	m.apply(&rec)
	return rec.Ino
}

// SnapDeleteDirect removes a snapshot without logging or timing (benchmark
// setup); the next CP reclaims its exclusively-held blocks.
func (sys *System) SnapDeleteDirect(vol int, id uint64) bool {
	m, lv := sys.volMember(vol)
	return m.apply(&nvlog.Record{Kind: nvlog.OpSnapDelete, Vol: uint32(lv), Ino: id})
}

// CloneCreateDirect binds a free clone slot on the parent's member as a
// writable clone of snapshot snapID, without logging or timing (benchmark
// setup); the next CP materializes the bind. Returns the clone's global
// volume index, or -1 if the snapshot does not exist or no slot is free.
func (sys *System) CloneCreateDirect(parentVol int, snapID uint64) int {
	m, plv := sys.volMember(parentVol)
	rec := nvlog.Record{Kind: nvlog.OpCloneCreate, Ino: snapID, FBN: FBN(plv)}
	if !m.apply(&rec) {
		return -1
	}
	return sys.globalVol(m.id, int(rec.Vol))
}

// CloneBound reports whether the (globally addressed) volume is a bound
// writable clone.
func (sys *System) CloneBound(vol int) bool {
	m, lv := sys.volMember(vol)
	return m.a.Volume(lv).IsClone()
}

// CloneSplitDone reports whether a requested split has fully completed: the
// volume no longer carries clone state (parent holds and delete guard
// dropped). False for a still-bound clone; true for a never-cloned volume.
func (sys *System) CloneSplitDone(vol int) bool {
	m, lv := sys.volMember(vol)
	v := m.a.Volume(lv)
	return !v.IsClone() && !v.ClonePending()
}

// CloneParent returns the clone's parent as (global parent volume, snapshot
// ID); ok is false if the volume is not a bound clone.
func (sys *System) CloneParent(vol int) (parentVol int, snapID uint64, ok bool) {
	m, lv := sys.volMember(vol)
	st := m.a.Volume(lv).CloneState()
	if st == nil {
		return 0, 0, false
	}
	return sys.globalVol(m.id, st.ParentVol), st.ParentSnap, true
}

// CloneVolumes returns the global volume indices of every bound clone (and
// every clone whose bind is pending), in member-then-slot order.
func (sys *System) CloneVolumes() []int {
	var out []int
	for _, m := range sys.members {
		for s, hi := m.cloneSlots(); s < hi; s++ {
			v := m.a.Volume(s)
			if v.IsClone() || v.ClonePending() {
				out = append(out, sys.globalVol(m.id, s))
			}
		}
	}
	return out
}

// VolFreeBlocks returns the loosely-accounted allocatable-VVBN counter of
// one (globally addressed) volume (free = !active && !summary). After a
// Quiesce it matches FreeSpaceBreakdown(vol).Free exactly.
func (sys *System) VolFreeBlocks(vol int) int64 {
	m, lv := sys.volMember(vol)
	return m.in.VolFree(lv)
}

// SuperblockBytes returns the encoded current superblock — the exact bytes
// the last commit persisted. For a cluster, the members' superblocks are
// concatenated in member order. Determinism tests compare it across runs
// as a compact digest of the committed trees.
func (sys *System) SuperblockBytes() []byte {
	var out []byte
	for _, m := range sys.members {
		out = append(out, m.a.SuperblockBytes()...)
	}
	return out
}

// Flush drives consistency points until all dirty state is persisted on
// every member, without stopping client threads.
func (sys *System) Flush() error { return sys.drive("flush") }

// Quiesce stops accepting new client work (clients see Alive() == false)
// and drives consistency points until every dirty buffer and logged
// operation on every member has reached persistent storage. A quiesced
// member holds no recycled record, so every one its pools handed out must be
// back, or abandoned by the crash that dropped it (DESIGN §9); otherwise
// Quiesce names the pool that leaked. The counts are the running
// incarnation's: the pools a remount rebuilds died with the old one. The
// image pool's arrays, which a buffer or the media hold by design, are
// audited against the media instead (Aggregate.CheckImages), which also
// fails on a clean user L0 buffer left in a tree after its CP committed, and
// so are the RAID groups' explicit parity rows (raid.Group.CheckRows).
func (sys *System) Quiesce() error {
	sys.stopped = true
	if err := sys.drive("quiesce"); err != nil {
		return err
	}
	var errs []error
	for _, m := range sys.members {
		if m.crashed {
			continue
		}
		if err := m.stats().Sub(m.base).leaks(); err != nil {
			errs = append(errs, fmt.Errorf("wafl: member %d leaks recycled records: %w", m.id, err))
		}
		if err := m.a.CheckImages(); err != nil {
			errs = append(errs, fmt.Errorf("wafl: member %d misplaces block images: %w", m.id, err))
		}
		for gi := 0; gi < m.a.Groups(); gi++ {
			if err := m.a.Group(gi).CheckRows(); err != nil {
				errs = append(errs, fmt.Errorf("wafl: member %d keeps parity rows amiss: %w", m.id, err))
			}
		}
	}
	return errors.Join(errs...)
}

// drive requests consistency points on every member, a bounded number of
// rounds, until the whole system is clean; verb names the caller in the
// error.
func (sys *System) drive(verb string) error {
	var m *Member
	for i := 0; i < 8; i++ {
		sys.ForceCP()
		sys.Run(2 * Second)
		if m = sys.unclean(); m == nil {
			return nil
		}
	}
	return fmt.Errorf("wafl: system did not %s (member %d: log ops=%d, frozen=%v)",
		verb, m.id, m.log.ActiveOps(), m.log.HasFrozen())
}

// unclean returns the first member with logged ops, a frozen log half, a
// running CP, dirty files, or snapshot, clone or restore machinery not yet
// quiescent; nil when there is none.
func (sys *System) unclean() *Member {
	for _, m := range sys.members {
		clean := m.log.ActiveOps() == 0 && !m.log.HasFrozen() && !m.engine.Running()
		for _, v := range m.a.Volumes() {
			if v.DirtyFiles() > 0 || !v.SnapshotsQuiescent() || !v.CloneRestoreQuiescent() {
				clean = false
			}
		}
		if !clean {
			return m
		}
	}
	return nil
}
