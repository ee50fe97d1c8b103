// Package cp implements the consistency-point engine (paper §II-C): the
// transaction that atomically flushes all dirty state to new locations on
// persistent storage. A CP freezes the dirty-inode lists, drives the
// cleaner pool and White Alligator infrastructure through inode cleaning,
// writes inode records and volume metafiles, flushes the self-referential
// aggregate activemap, and finally commits by overwriting the superblock in
// place. After the commit, the NVRAM log half that fed the CP is freed.
package cp

import (
	"fmt"
	"slices"

	"wafl/internal/aggregate"
	"wafl/internal/block"
	"wafl/internal/core"
	"wafl/internal/fs"
	"wafl/internal/nvlog"
	"wafl/internal/obs"
	"wafl/internal/sim"
	"wafl/internal/snap"
	"wafl/internal/storage"
	"wafl/internal/waffinity"
)

// cloneSplitBatch bounds the number of still-live base blocks a clone split
// rewrites per consistency point. The split is a background block copy; the
// bound keeps any single CP's extra cleaning load — and hence client
// NVRAM-stall exposure — fixed.
const cloneSplitBatch = 2048

// Stats holds cumulative CP engine counters. The facade's wafl.Stats folds
// these by reflection: a `stat` tag marks a field that is not a plain counter.
type Stats struct {
	CPs             uint64
	InodesCleaned   uint64
	RecordsWritten  uint64
	ZombiesReaped   uint64
	SnapsCreated    uint64
	SnapsDeleted    uint64
	SnapReclaimed   uint64 // physical blocks returned by snapshot deletes
	Restores        uint64 // SnapRestores applied
	RestoreFreed    uint64 // physical blocks freed by restores
	RestoreBlocks   uint64 // metadata blocks walked/copied by restores (never data)
	CloneBinds      uint64 // clone binds materialized
	CloneCopied     uint64 // metafile blocks copied by clone binds
	SplitCopied     uint64 // data blocks queued for copy by clone splits
	SplitsDone      uint64 // clone splits fully completed (guard released)
	AmapWrites      uint64
	TotalDuration   sim.Duration
	LastDuration    sim.Duration `stat:"max"`
	CleanDuration   sim.Duration // user-file cleaning phase (cumulative)
	MetaDuration    sim.Duration // metafile flush phases (cumulative)
	BackToBack      uint64       // CPs that started with another already requested
	LongestDuration sim.Duration `stat:"max"`

	// One sample per CP: each phase's duration, in execution order, then the
	// metafile phases together (records through amap flush) and the whole
	// CP. SnapReclaim is the blocks each snapshot delete returned. All are
	// the live histograms, which wafl.Stats copies.
	PhaseFreeze, PhaseClean, PhaseRecords, PhaseMetafiles *obs.Histogram
	PhaseVoltable, PhaseAmap, PhaseCommit                 *obs.Histogram
	MetaTime, TotalTime, SnapReclaim                      *obs.Histogram
}

// newStats returns zero counters and empty histograms.
func newStats() Stats {
	h := obs.NewHistogram
	return Stats{
		PhaseFreeze: h("cp.phase.freeze+zombies"), PhaseClean: h("cp.phase.clean"),
		PhaseRecords: h("cp.phase.records"), PhaseMetafiles: h("cp.phase.metafiles"),
		PhaseVoltable: h("cp.phase.voltable"), PhaseAmap: h("cp.phase.amap flush"),
		PhaseCommit: h("cp.phase.commit"),
		MetaTime:    h("cp.meta"), TotalTime: h("cp.total"), SnapReclaim: h("snap.reclaimed"),
	}
}

// Engine orchestrates consistency points on its own simulated thread.
type Engine struct {
	s     *sim.Scheduler
	w     *waffinity.Scheduler
	h     *waffinity.Hierarchy
	a     *aggregate.Aggregate
	in    *core.Infra
	pool  *core.Pool
	log   *nvlog.Log
	opts  core.Options
	costs core.CostModel

	trigger *sim.WaitQueue
	cpDone  *sim.WaitQueue
	wantCP  bool
	running bool
	stopped bool

	obsTid     int32 // interned CP-phase trace track id + 1; 0 = unset
	obsSnapTid int32 // interned snapshot-event trace track id + 1; 0 = unset

	// phaseHook, when set, is consulted at every CP phase boundary with the
	// boundary's name. Returning true means "the crash harness wants to
	// stop here": the engine thread yields once, so a pending scheduler
	// halt (sim.Scheduler.RequestHalt) takes effect at exactly that
	// boundary. The hook must be a pure observer otherwise — when it
	// returns false no simulation primitive runs, keeping the event stream
	// bit-identical to a run without a hook.
	phaseHook func(phase string) bool

	// onRestore, when set, fires on the engine thread after a SnapRestore is
	// applied to a volume, before the CP commits. The facade uses it to
	// invalidate that volume's buffer-cache entries and refund in-flight
	// placement reservations — state that describes the discarded present.
	onRestore func(volID int)

	stats Stats
}

// SetPhaseHook installs (or, with nil, removes) the CP phase-boundary hook.
func (e *Engine) SetPhaseHook(fn func(phase string) bool) { e.phaseHook = fn }

// SetRestoreHook installs the post-restore-apply callback.
func (e *Engine) SetRestoreHook(fn func(volID int)) { e.onRestore = fn }

// boundary reports one CP phase boundary to the crash-schedule hook.
func (e *Engine) boundary(t *sim.Thread, name string) {
	if e.phaseHook != nil && e.phaseHook(name) {
		t.Yield()
	}
}

// track returns the CP phase-marker trace track, interning it on first use.
func (e *Engine) track(tr *obs.Tracer) int32 {
	if e.obsTid == 0 {
		e.obsTid = tr.Track(obs.PidCP, "phases") + 1
	}
	return e.obsTid - 1
}

// snapTrack returns the snapshot-event trace track, interning it on first
// use. Snapshot create/delete/reclaim instants land here.
func (e *Engine) snapTrack(tr *obs.Tracer) int32 {
	if e.obsSnapTid == 0 {
		e.obsSnapTid = tr.Track(obs.PidCP, "snapshots") + 1
	}
	return e.obsSnapTid - 1
}

// New creates the engine and starts its thread.
func New(w *waffinity.Scheduler, h *waffinity.Hierarchy, a *aggregate.Aggregate, in *core.Infra, pool *core.Pool, log *nvlog.Log, opts core.Options, costs core.CostModel) *Engine {
	e := &Engine{
		s: a.Sched(), w: w, h: h, a: a, in: in, pool: pool, log: log, opts: opts, costs: costs,
		trigger: sim.NewWaitQueue(a.Sched(), "cp-trigger"),
		cpDone:  sim.NewWaitQueue(a.Sched(), "cp-done"),
		stats:   newStats(),
	}
	e.s.Go("cp-engine", sim.CatCP, func(t *sim.Thread) { e.loop(t) })
	return e
}

// scatterVolumes runs fn once per volume of vols, in slice (sorted-ID)
// order. ParallelCP=false runs the units inline on the engine thread; parallel
// mode dispatches each as a message in that volume's Volume affinity and
// joins before returning, so volumes proceed concurrently under the same
// exclusion rules client operations obey. Determinism: units are enqueued
// in volume order and the sim scheduler is deterministic, so the
// interleaving is a pure function of prior simulation state. Workers may
// touch engine/infra state directly — at most one simulated thread runs at
// any real instant, so there is no host-level race — but fn must produce
// only order-independent effects: writes to its own volume's volCut, counter
// adds, stat increments.
func (e *Engine) scatterVolumes(t *sim.Thread, name string, vols []*aggregate.Volume, fn func(wt *sim.Thread, v *aggregate.Volume)) {
	if !e.opts.ParallelCP {
		for _, v := range vols {
			fn(t, v)
		}
		return
	}
	units := make([]waffinity.Unit, len(vols))
	for i, v := range vols {
		v := v
		units[i] = waffinity.Unit{
			Aff: e.h.Volumes[v.ID()].Volume,
			Cat: sim.CatCP,
			Fn: func(wt *sim.Thread) {
				start := wt.Now()
				fn(wt, v)
				// Per-volume phase span on the executing worker's own
				// track, so the fan-out's overlap is visible in the trace.
				if tr := wt.Tracer(); tr != nil {
					tr.Span(obs.PidThreads, wt.TrackID(), "cp",
						fmt.Sprintf("cp.%s vol%d", name, v.ID()),
						int64(start), int64(wt.Now()))
				}
			},
		}
	}
	e.w.ScatterJoin(t, units)
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Running reports whether a CP is in progress.
func (e *Engine) Running() bool { return e.running }

// Stop makes the engine thread exit after the current CP.
func (e *Engine) Stop() {
	e.stopped = true
	e.trigger.Signal()
}

// RequestCP asks for a consistency point. If one is already running, the
// request is remembered and a back-to-back CP follows immediately — the
// state in which client writes stall on NVRAM space.
func (e *Engine) RequestCP() {
	if e.running {
		e.wantCP = true
		return
	}
	e.wantCP = true
	e.trigger.Signal()
}

// WaitCPDone blocks the calling thread until the next CP completes. Client
// operations stalled on NVRAM space use it to wait for a half to free up.
func (e *Engine) WaitCPDone(t *sim.Thread) {
	e.cpDone.Wait(t)
}

func (e *Engine) loop(t *sim.Thread) {
	for !e.stopped {
		for !e.wantCP && !e.stopped {
			e.trigger.Wait(t)
		}
		if e.stopped {
			return
		}
		e.wantCP = false
		e.running = true
		e.runCP(t)
		e.running = false
		if e.wantCP {
			e.stats.BackToBack++
		}
		e.cpDone.Broadcast()
	}
}

// volCut is one volume's share of a consistency point: what the freeze cut
// took from the volume, and what each phase leaves for the later ones.
type volCut struct {
	snapPend []uint64         // snapshot creates taken at the cut; phase 2b materializes them
	restPend []uint64         // SnapRestores taken at the cut; phase 1b applies them
	bind     bool             // a clone bind was queued at the cut; phase 1b materializes it
	frozen   []*fs.File       // inodes frozen into this CP (phase 1), by ino
	reaped   map[uint64]bool  // inodes phase 1b reaped: phase 3 must not rewrite their records
	snapZ    []*snap.Snapshot // snapshot zombies taken in phase 1b, reclaimed after the free drain
	snaps    []*snap.Snapshot // snapshots materialized in phase 2b; phase 3b copies their inode files
	snapSet  bool             // snapshot set changed (2b create, 1b reclaim): phase 5 rewrites the snapdir
	redrive  bool             // phase 1b left work (deferred restore or bind, split batch) for a follow-up CP
}

// runCP executes one full consistency point. The engine thread owns phase
// ordering, the drains, and the crash-boundary hooks; the per-volume work
// inside phases 1, 1b, 2b, 3, 3b, and 5 fans out across the Waffinity
// Volume affinities when ParallelCP is on (see scatterVolumes).
//
// Everything a CP tracks per volume lives in one []volCut indexed by volume
// ID. The freeze cut fills in what this CP — rather than the next — will
// apply; after that every phase reads it, a fan-out worker writes only its
// own volume's entry, and the engine thread reads any entry between joins
// (picked selects the volumes a phase has work for).
func (e *Engine) runCP(t *sim.Thread) {
	start := t.Now()
	tr := t.Tracer()
	ph := start // start of the phase currently executing

	// phase closes out the currently-running phase: it records the
	// duration in h, and when tracing also emits the span.
	phase := func(h *obs.Histogram, name string) {
		now := t.Now()
		h.Observe(int64(now - ph))
		if tr != nil {
			tr.Span(obs.PidCP, e.track(tr), "cp", name, int64(ph), int64(now))
		}
		ph = now
	}

	e.boundary(t, "start")
	e.a.StartCP()
	// Phase 1: freeze. Atomically capture the dirty state: switch NVRAM
	// halves and move every dirty inode's buffers into its frozen set.
	// Pending snapshot creates are taken in the same atomic cut (no yield
	// between the switch and the take): a create logged to the frozen half
	// is materialized by this CP, one logged after the switch waits for the
	// next — so an acked create is always covered by a committed CP or a
	// surviving log record.
	e.log.Switch()
	vols := e.a.Volumes()
	cuts := make([]volCut, len(vols))
	picked := func(keep func(c *volCut) bool) (out []*aggregate.Volume) {
		for _, v := range vols {
			if keep(&cuts[v.ID()]) {
				out = append(out, v)
			}
		}
		return out
	}
	for _, v := range vols {
		// Restores and clone binds are part of the same atomic cut: an op
		// logged to the frozen half is applied by this CP, one logged after
		// the switch waits for the next. Restores are taken out of the volume
		// here; binds stay queued on the volume (MaterializeClone consumes
		// them) but the decision of *which* CP applies them is made now.
		cuts[v.ID()] = volCut{
			snapPend: v.TakePendingSnapshots(),
			restPend: v.TakePendingRestores(),
			bind:     v.ClonePending(),
		}
	}
	// The freeze itself fans out per volume. Client writes interleave with
	// it either way (the serial loop yields in Consume between volumes):
	// a buffer dirtied after the switch but before its volume's freeze is
	// frozen into this CP with its log record in the next half, which is
	// safe because replay is idempotent. Under fan-out each volume's freeze
	// additionally excludes that volume's client ops (Stripes are
	// descendants of Volume), making the per-volume cut atomic.
	e.scatterVolumes(t, "freeze", vols, func(wt *sim.Thread, v *aggregate.Volume) {
		files := v.FreezeAll()
		cuts[v.ID()].frozen = files
		wt.Consume(sim.Duration(len(files)) * e.costs.CPPerInode)
	})
	dirtyVols := picked(func(c *volCut) bool { return len(c.frozen) > 0 })

	// Phase 1b: zombie processing — deleted files' on-disk blocks are
	// reclaimed through the same free-commit machinery, and their inode
	// records cleared. Deferred deletion, as in WAFL. Each volume's zombie
	// walks are independent (all state is per-volume; free commits are
	// asynchronous messages), so the walks fan out per volume.
	e.in.StartCP(dirtyVols)
	e.scatterVolumes(t, "zombies", vols, func(wt *sim.Thread, v *aggregate.Volume) {
		cut := &cuts[v.ID()]
		// SnapRestores taken at the freeze cut apply first: the restored
		// image supersedes everything else queued on the volume (zombies and
		// dirty state were already discarded at request time, and clients
		// have been gated since). The active map converges on the snapmap by
		// a word-wise diff and the inode file becomes the inocopy image —
		// O(metadata), never data blocks.
		for n, id := range cut.restPend {
			s := v.SnapshotByID(id)
			if s == nil {
				// Created and restored within one NVRAM window: the
				// target materializes later in this very CP (phase 2b).
				// Re-queue — the volume stays gated — and drive a
				// follow-up CP to apply it.
				v.DeferRestore(cut.restPend[n:])
				cut.redrive = true
				break
			}
			pvbns, freedAlloc, walked := v.ApplyRestore(s)
			wt.Consume(sim.Duration(walked) * e.costs.CommitPerBlock)
			e.in.Reclaim(v, pvbns, nil, freedAlloc)
			e.stats.Restores++
			e.stats.RestoreFreed += uint64(len(pvbns))
			e.stats.RestoreBlocks += uint64(walked)
			if e.onRestore != nil {
				e.onRestore(v.ID())
			}
			if wtr := wt.Tracer(); wtr != nil {
				wtr.InstantArg(obs.PidCP, e.snapTrack(wtr), "snap", "snap-restore", int64(wt.Now()), int64(id))
			}
		}
		// Clone binds queued before the freeze cut materialize next: the
		// clone's active map and inode file become the parent snapshot's
		// frozen image, the shared set is recorded in the base map and
		// summary-held. A bind whose parent snapshot is pending in this same
		// CP waits one more (same NVRAM-window reasoning as restores).
		if cut.bind {
			pv, ps := v.ClonePendingInfo()
			p := e.a.Volume(pv)
			if p.SnapshotByID(ps) == nil {
				cut.redrive = true
			} else {
				activated, copied := v.MaterializeClone(p)
				wt.Consume(sim.Duration(copied) * e.costs.CommitPerBlock)
				// The newly active VVBNs were allocatable before the bind
				// (the slot map was empty and nothing summary-held them):
				// debit the loose volume free counter to match the index.
				e.in.Reclaim(v, nil, nil, -int(activated))
				e.stats.CloneBinds++
				e.stats.CloneCopied += uint64(copied)
				if wtr := wt.Tracer(); wtr != nil {
					wtr.InstantArg(obs.PidCP, e.snapTrack(wtr), "snap", "clone-bind", int64(wt.Now()), int64(v.ID()))
				}
			}
		}
		for _, z := range v.TakeZombies() {
			if z.FrozenCount() > 0 {
				// The file was frozen into this very CP before being
				// deleted: its cleaning is about to rewrite the tree and
				// its record. Reap it next CP, from the stable image.
				v.DeferZombie(z)
				continue
			}
			pvbns, vvbns, walked := v.ZombieBlocks(z)
			wt.Consume(sim.Duration(walked) * e.costs.CommitPerBit)
			// The volume counter tracks *allocatable* VVBNs (free = !active
			// && !summary), so a block whose active bit clears here but
			// which a snapshot still summary-holds does not credit it — its
			// credit comes later, from the snapshot reclaim that drops the
			// last holder.
			alloc := 0
			for _, vv := range vvbns {
				if !v.SummaryHeld(vv) {
					alloc++
				}
			}
			e.in.Reclaim(v, pvbns, vvbns, alloc)
			v.ClearRecord(z.Ino())
			// Remember the reap: if the file was also in this CP's frozen
			// list (a record-only freeze deleted between the freeze and
			// zombie phases — both yield), phase 3 must not re-write its
			// record over the clear, or the deleted file is resurrected on
			// disk.
			if cut.reaped == nil {
				cut.reaped = make(map[uint64]bool)
			}
			cut.reaped[z.Ino()] = true
			e.stats.ZombiesReaped++
		}
		cut.snapZ = v.TakeSnapZombies()
	})
	zvols := picked(func(c *volCut) bool { return len(c.snapZ) > 0 })
	// Splitting clones do their bounded block-copy step (or complete) after
	// the zombie walks; computed here because a bind materialized above may
	// have started a replay-queued split.
	var splitVols []*aggregate.Volume
	for _, v := range vols {
		if v.CloneSplitting() {
			splitVols = append(splitVols, v)
		}
	}
	if len(zvols) > 0 || len(splitVols) > 0 {
		// The file-zombie free commits above are applied asynchronously by
		// range-affinity messages. A snapshot reclaim diffs the victim's
		// snapmap against activemap *content*, so an in-flight clear — a file
		// deleted in this CP whose blocks a dying snapshot holds — would make
		// the reclaim see the VVBN as still active: it would clear the summary
		// bit but never free the physical block, leaking it permanently. A
		// clone-split completion makes the same content diff (live base
		// count), so it needs the same settling. Wait for the messages
		// (without entering drain mode — the cleaning phase's fill pipeline
		// hasn't started yet).
		e.in.DrainFrees(t)
	}
	if len(zvols) > 0 {
		// Snapshot zombies: diff the victim's snapmap against the active map
		// and surviving snapmaps, clear the summary bits nobody else holds,
		// and return exclusively-held blocks (plus the snapshot's own
		// metafile trees) to the aggregate. Same-CP physical reuse is fenced
		// by the pending-free set, exactly like file zombie frees.
		e.scatterVolumes(t, "snapreclaim", zvols, func(wt *sim.Thread, v *aggregate.Volume) {
			cut := &cuts[v.ID()]
			zombies := cut.snapZ
			for zi, z := range zombies {
				pvbns, freedVVBNs, walked := v.ReclaimSnapshot(z, zombies[zi+1:])
				wt.Consume(sim.Duration(walked) * e.costs.CommitPerBit)
				// The reclaimed VVBNs' active bits were already clear and
				// their last summary holder is gone: they re-enter the
				// volume's allocatable pool without a bit to free.
				e.in.Reclaim(v, pvbns, nil, freedVVBNs)
				e.stats.SnapsDeleted++
				e.stats.SnapReclaimed += uint64(len(pvbns))
				cut.snapSet = true
				e.stats.SnapReclaim.Observe(int64(len(pvbns)))
				if wtr := wt.Tracer(); wtr != nil {
					wtr.InstantArg(obs.PidCP, e.snapTrack(wtr), "snap", "snap-delete", int64(wt.Now()), int64(z.ID))
				}
			}
		})
	}
	if len(splitVols) > 0 {
		// Clone splits. While base blocks are live in the active map, rewrite
		// a bounded batch through the normal COW write path — they dirty into
		// the open generation and the *next* CP's cleaner assigns fresh
		// VVBN/physical homes, so each split CP is re-driven below. Once no
		// base block is live, completion clears the summary/base holds not
		// owned by clone-local snapshots and (when fully drained) frees the
		// base map metafile and drops the parent-snapshot delete guard.
		e.scatterVolumes(t, "clonesplit", splitVols, func(wt *sim.Thread, v *aggregate.Volume) {
			if v.RestoreQueued() {
				// The split is a writer and obeys the restore gate: a request
				// that landed after this CP's freeze cut discarded the open
				// files, and a step now would reload them from records the
				// restore is about to replace and dirty blocks the running
				// CP's cleaner is already moving — freed twice. Checked here,
				// not where splitVols is chosen: the request can arrive during
				// the DrainFrees yield in between.
				cuts[v.ID()].redrive = true
				return
			}
			st := v.CloneState()
			if live := v.CloneLiveBase(); live > 0 {
				copied, walked := v.SplitStep(cloneSplitBatch)
				wt.Consume(sim.Duration(walked) * e.costs.CommitPerBit)
				e.stats.SplitCopied += uint64(copied)
				cuts[v.ID()].redrive = true
				return
			}
			pv, ps := st.ParentVol, st.ParentSnap
			basePvbns, freedAlloc, walked, done := v.CompleteSplit()
			wt.Consume(sim.Duration(walked) * e.costs.CommitPerBit)
			e.in.Reclaim(v, basePvbns, nil, freedAlloc)
			if done {
				e.a.Volume(pv).DropCloneRef(ps)
				e.stats.SplitsDone++
				if wtr := wt.Tracer(); wtr != nil {
					wtr.InstantArg(obs.PidCP, e.snapTrack(wtr), "snap", "clone-split-done", int64(wt.Now()), int64(v.ID()))
				}
			}
		})
	}
	if slices.ContainsFunc(cuts, func(c volCut) bool { return c.redrive }) {
		e.RequestCP()
	}

	// Phase 2: inode cleaning through the White Alligator API.
	var jobs []*core.Job
	for _, v := range dirtyVols {
		jobs = append(jobs, e.pool.BuildJobs(v, cuts[v.ID()].frozen, true)...)
	}
	cleanStart := t.Now()
	phase(e.stats.PhaseFreeze, "freeze+zombies")
	e.pool.RunPhase(t, jobs)
	// Wait only for infrastructure messages: the allocation-bitmap state
	// must be final before metafiles are cleaned, but the tetris write
	// I/Os keep flowing underneath the metafile phases.
	e.in.DrainOps(t)
	e.stats.CleanDuration += sim.Duration(t.Now() - cleanStart)
	phase(e.stats.PhaseClean, "clean")
	e.boundary(t, "clean")

	// Phase 2b: snapshot capture, part one. With cleaning drained, the
	// volume activemaps hold this CP's final allocation state: copy each
	// pending snapshot's snapmap from the live amap content and fold it into
	// the summary map, per volume. (The inode-file half of the image is
	// captured after phase 3, once records are written.)
	pvols := picked(func(c *volCut) bool { return len(c.snapPend) > 0 })
	e.scatterVolumes(t, "snapcapture", pvols, func(wt *sim.Thread, v *aggregate.Volume) {
		cut := &cuts[v.ID()]
		for _, id := range cut.snapPend {
			s, copied := v.MaterializeSnapshot(id, e.a.CPCount()+1)
			wt.Consume(sim.Duration(copied) * e.costs.CommitPerBlock)
			cut.snaps = append(cut.snaps, s)
			if wtr := wt.Tracer(); wtr != nil {
				wtr.InstantArg(obs.PidCP, e.snapTrack(wtr), "snap", "snap-create", int64(wt.Now()), int64(id))
			}
		}
		cut.snapSet = true
		e.stats.SnapsCreated += uint64(len(cut.snaps))
	})

	// Phase 3: inode records. Roots are final; serialize the records into
	// the inode files, per volume.
	metaStart := t.Now()
	e.scatterVolumes(t, "records", dirtyVols, func(wt *sim.Thread, v *aggregate.Volume) {
		cut := &cuts[v.ID()]
		written := 0
		for _, f := range cut.frozen {
			if cut.reaped[f.Ino()] {
				// Deleted after the freeze and already reaped by phase 1b
				// (possible only for a buffer-less record-only freeze):
				// writing the stale record would resurrect the file.
				continue
			}
			v.WriteRecord(f)
			wt.Consume(e.costs.RecordWrite)
			written++
		}
		e.stats.RecordsWritten += uint64(written)
		e.stats.InodesCleaned += uint64(len(cut.frozen))
	})

	phase(e.stats.PhaseRecords, "records")
	e.boundary(t, "records")

	// Phase 3b: snapshot capture, part two. Inode-file content is final
	// (records written, deleted records cleared): copy it into each new
	// snapshot's inocopy metafile, per volume. Both snapshot metafiles are
	// then cleaned alongside the volume metafiles in phase 4.
	e.scatterVolumes(t, "inocopy", pvols, func(wt *sim.Thread, v *aggregate.Volume) {
		for _, s := range cuts[v.ID()].snaps {
			copied := snap.CopyContent(s.InoCopy, v.InoFile())
			wt.Consume(sim.Duration(copied) * e.costs.CommitPerBlock)
		}
	})
	var snapJobs []*core.Job
	for _, v := range pvols {
		for _, s := range cuts[v.ID()].snaps {
			snapJobs = append(snapJobs,
				&core.Job{Vol: v, File: s.Snapmap, Mode: core.JobFull},
				&core.Job{Vol: v, File: s.InoCopy, Mode: core.JobFull})
		}
	}

	// Phase 4: volume metafiles (inode file, container map, volume
	// activemap, snapdir, summary map) plus any newborn snapshot metafiles,
	// cleaned through the same allocator.
	e.in.Prefill()
	metaJobs := snapJobs
	for _, v := range e.a.Volumes() {
		for _, mf := range v.Metafiles() {
			if mf.FrozenCount() > 0 {
				metaJobs = append(metaJobs, &core.Job{Vol: v, File: mf, Mode: core.JobFull})
			}
		}
	}
	e.pool.RunPhase(t, metaJobs)
	phase(e.stats.PhaseMetafiles, "metafiles")
	e.boundary(t, "metafiles")

	// Phase 5: snapdir + volume table. Volumes whose snapshot set changed
	// rewrite their snapdir from the live set — the snapmap/inocopy roots
	// are final after phase 4 — per volume; the snapdir is cleaned before
	// the volume-table entries (which hold its root) are serialized. The
	// volume table itself is aggregate state: it stays on the engine thread.
	svols := picked(func(c *volCut) bool { return c.snapSet })
	e.scatterVolumes(t, "snapdir", svols, func(wt *sim.Thread, v *aggregate.Volume) {
		v.WriteSnapdirEntries()
		wt.Consume(e.costs.RecordWrite)
	})
	var sdJobs []*core.Job
	for _, v := range svols {
		if v.SnapdirFile().FrozenCount() > 0 {
			sdJobs = append(sdJobs, &core.Job{Vol: v, File: v.SnapdirFile(), Mode: core.JobFull})
		}
	}
	if len(sdJobs) > 0 {
		e.pool.RunPhase(t, sdJobs)
	}
	e.a.WriteVolumeEntries()
	if e.a.VolTableFile().FrozenCount() > 0 {
		e.pool.RunPhase(t, []*core.Job{{File: e.a.VolTableFile(), Mode: core.JobFull}})
	}
	e.in.DrainOps(t)
	phase(e.stats.PhaseVoltable, "voltable")
	e.boundary(t, "voltable")

	// Phase 6: the self-referential aggregate activemap, via the
	// fixed-point flush planner; then wait for every outstanding write
	// I/O before committing.
	freeBefore := int64(e.a.TotalFree())
	writes := e.a.PlanAmapFlush(func() block.VBN { return e.in.FindMetaVBN(t) })
	// The flush planner allocates and frees directly; reconcile the loose
	// global counter with the net change — the per-CP "audit and correct"
	// step loose accounting requires (§III-C).
	e.in.AdjustAggrFree(int64(e.a.TotalFree()) - freeBefore)
	e.stats.AmapWrites += uint64(len(writes))
	t.ConsumeAs(sim.CatInfra, sim.Duration(len(writes))*e.costs.CommitPerBlock)
	e.issueAmapWrites(t, writes)
	e.in.DrainIO(t)
	e.stats.MetaDuration += sim.Duration(t.Now() - metaStart)
	phase(e.stats.PhaseAmap, "amap flush")
	e.stats.MetaTime.Observe(int64(t.Now() - metaStart))
	e.boundary(t, "amap")

	// Phase 7: commit. The superblock overwrite is the atomic transition
	// to the new file system tree; afterwards the NVRAM half that fed
	// this CP is freed and same-CP-freed blocks become allocatable; the
	// images of blocks the previous CP freed leave the media.
	e.boundary(t, "commit")
	e.a.SetCPCount(e.a.CPCount() + 1)
	e.a.WriteSuperblock(t)
	// The cleaned user L0s have landed and are committed: the clean ones
	// leave their trees, and the media is their content from here on.
	for _, c := range cuts {
		for _, f := range c.frozen {
			f.DropClean()
		}
	}
	e.a.ForgetFreed()
	e.boundary(t, "post-commit")
	e.log.FreeFrozen()
	e.in.EndCP()
	// The applied restores are durable: reopen the client gates. Deferred
	// restores re-queued at phase 1b keep their volumes gated through
	// pendRestores until the follow-up CP applies them.
	for _, v := range picked(func(c *volCut) bool { return len(c.restPend) > 0 }) {
		v.FinishRestore()
	}
	e.boundary(t, "done")

	phase(e.stats.PhaseCommit, "commit")
	if tr != nil {
		tr.SpanArg(obs.PidCP, e.track(tr), "cp", "CP", int64(start), int64(t.Now()),
			int64(e.a.CPCount()))
	}
	d := sim.Duration(t.Now() - start)
	e.stats.TotalTime.Observe(int64(d))
	e.stats.CPs++
	e.stats.TotalDuration += d
	e.stats.LastDuration = d
	if d > e.stats.LongestDuration {
		e.stats.LongestDuration = d
	}
}

// issueAmapWrites sends the planned activemap block writes to RAID, one
// grouped write per RAID group.
func (e *Engine) issueAmapWrites(t *sim.Thread, writes []aggregate.AmapWrite) {
	if len(writes) == 0 {
		return
	}
	geo := e.a.Geometry()
	perGroup := make(map[int][][]storage.WriteReq)
	for _, w := range writes {
		g, d, dbn := geo.Locate(w.VBN)
		reqs := perGroup[g]
		if reqs == nil {
			reqs = make([][]storage.WriteReq, geo.DataDrives)
		}
		reqs[d] = append(reqs[d], storage.WriteReq{DBN: dbn, Data: w.Data})
		perGroup[g] = reqs
	}
	for g := 0; g < e.a.Groups(); g++ {
		reqs, ok := perGroup[g]
		if !ok {
			continue
		}
		e.in.AddIO()
		res := e.a.Group(g).Write(reqs, e.costs.ParityPerBlock, e.in.IODone)
		if res.ParityCPU > 0 {
			t.ConsumeAs(sim.CatRAID, res.ParityCPU)
		}
	}
}
