package core

import (
	"fmt"

	"wafl/internal/aggregate"
	"wafl/internal/block"
	"wafl/internal/counters"
	"wafl/internal/fs"
	"wafl/internal/obs"
	"wafl/internal/sim"
)

// JobMode selects which part of a file a cleaning job covers.
type JobMode int

// Job modes.
const (
	// JobFull cleans every frozen buffer of the file, bottom-up.
	JobFull JobMode = iota
	// JobL0Range cleans only frozen L0 buffers with FBN in [Lo, Hi) — one
	// slice of a large file split across cleaner threads (§V-C).
	JobL0Range
	// JobFinalize cleans levels ≥ 1 after all of a split file's range
	// jobs completed.
	JobFinalize
)

// Job is one unit of work for the cleaner pool: one inode to clean, whole
// or in part (batched inode cleaning, §V-C, hands a thread several jobs).
type Job struct {
	Vol   *aggregate.Volume // nil for aggregate-level metafiles
	File  *fs.File
	Dual  bool // assign VVBNs as well as VBNs (user files)
	Mode  JobMode
	Lo    block.FBN
	Hi    block.FBN
	group *splitGroup
}

// splitGroup coordinates the range jobs of one split file; when the last
// range job finishes, a finalize job for the upper tree levels is enqueued.
type splitGroup struct {
	remaining int
	vol       *aggregate.Volume
	file      *fs.File
	dual      bool
}

// PoolStats holds cumulative cleaner-pool counters.
type PoolStats struct {
	JobsRun        uint64
	BatchesRun     uint64
	BuffersCleaned uint64
	FilesSplit     uint64
	StageCommits   uint64
	Activations    uint64 // dynamic tuner thread activations
	Deactivations  uint64
}

// cleanerState is the per-thread context: the held buckets, free stages,
// and loose-accounting token.
type cleanerState struct {
	id   int
	t    *sim.Thread
	tok  *counters.Token
	phys *Bucket
	virt []*VBucket // by volume ID
	// free stages (§IV-A last paragraph), one per space by space.idx: old
	// block numbers accumulate here and are committed to the
	// infrastructure when full.
	stages  [][]uint64
	holding bool
	engaged sim.Duration // wall time spent processing jobs (tuner input)
}

// Pool is the set of inode-cleaner threads consuming the White Alligator
// API. Threads beyond the active count park; the dynamic tuner (§V-B)
// adjusts the active count every 50ms.
type Pool struct {
	s     *sim.Scheduler
	in    *Infra
	opts  Options
	costs CostModel

	queueMu *sim.Mutex
	cond    *sim.WaitQueue
	queue   []*Job

	threads []*cleanerState
	activeN int

	inCP          bool
	pendingJobs   int
	resourcesHeld int
	idleCond      *sim.WaitQueue

	// phaseTime accumulates wall time spent inside cleaning phases; the
	// tuner normalizes cleaner utilization over it rather than over raw
	// wall time, so short CP bursts still expose a saturated cleaner.
	phaseTime sim.Duration

	stats PoolStats
}

// NewPool creates the cleaner pool with opts.MaxCleaners threads (all
// spawned immediately; the active count governs who works).
func NewPool(in *Infra, opts Options, costs CostModel) *Pool {
	p := &Pool{
		s: in.s, in: in, opts: opts, costs: costs,
		queueMu:  sim.NewMutex(in.s, "cleaner-queue"),
		cond:     sim.NewWaitQueue(in.s, "cleaner-queue-cond"),
		idleCond: sim.NewWaitQueue(in.s, "cleaner-idle"),
		activeN:  opts.InitialCleaners,
	}
	if p.activeN < 1 {
		p.activeN = 1
	}
	if p.activeN > opts.MaxCleaners {
		p.activeN = opts.MaxCleaners
	}
	for i := 0; i < opts.MaxCleaners; i++ {
		cs := &cleanerState{
			id:     i,
			tok:    in.global.NewToken(),
			virt:   make([]*VBucket, len(in.vols)),
			stages: make([][]uint64, len(in.spaces)),
		}
		p.threads = append(p.threads, cs)
		cs.t = in.s.Go(fmt.Sprintf("cleaner-%d", i), sim.CatCleaner, func(t *sim.Thread) {
			cs.t = t
			p.threadLoop(cs)
		})
	}
	return p
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// Active returns the current active cleaner-thread count.
func (p *Pool) Active() int { return p.activeN }

// SetActive adjusts the active thread count (used by the tuner and the
// static-thread-count experiments).
func (p *Pool) SetActive(n int) {
	if n < 1 {
		n = 1
	}
	if n > p.opts.MaxCleaners {
		n = p.opts.MaxCleaners
	}
	if n > p.activeN {
		p.stats.Activations += uint64(n - p.activeN)
	} else if n < p.activeN {
		p.stats.Deactivations += uint64(p.activeN - n)
	}
	p.activeN = n
	p.cond.Broadcast()
}

// CleanerEngaged returns each thread's cumulative engaged wall time — time
// spent processing cleaning jobs, including waits for buckets. This is the
// utilization signal the dynamic tuner thresholds against: a cleaner that
// is engaged 90% of the time is the CP's critical path even if much of
// that is pipeline waiting.
func (p *Pool) CleanerEngaged() []sim.Duration {
	out := make([]sim.Duration, len(p.threads))
	for i, cs := range p.threads {
		out[i] = cs.engaged
	}
	return out
}

// BuildJobs converts a volume's frozen inode list into cleaning jobs,
// applying large-file splitting.
func (p *Pool) BuildJobs(vol *aggregate.Volume, files []*fs.File, dual bool) []*Job {
	var jobs []*Job
	for _, f := range files {
		l0 := f.FrozenLevelCount(0)
		if p.opts.SplitLargeFiles && l0 >= splitThreshold {
			p.stats.FilesSplit++
			g := &splitGroup{remaining: splitJobs, vol: vol, file: f, dual: dual}
			span := (f.Size() + splitJobs - 1) / splitJobs
			for j := 0; j < splitJobs; j++ {
				lo := block.FBN(j) * span
				hi := lo + span
				jobs = append(jobs, &Job{
					Vol: vol, File: f, Dual: dual,
					Mode: JobL0Range, Lo: lo, Hi: hi, group: g,
				})
			}
			continue
		}
		jobs = append(jobs, &Job{Vol: vol, File: f, Dual: dual, Mode: JobFull})
	}
	return jobs
}

// RunPhase enqueues jobs, lets the pool clean them, and blocks the calling
// (CP) thread until every job is done and every thread has returned its
// buckets, committed its stages, and flushed its token.
func (p *Pool) RunPhase(t *sim.Thread, jobs []*Job) {
	if len(jobs) == 0 {
		return
	}
	p.queueMu.Lock(t)
	p.inCP = true
	p.queue = append(p.queue, jobs...)
	p.pendingJobs += len(jobs)
	p.queueMu.Unlock(t)
	p.cond.Broadcast()

	phaseStart := t.Now()
	p.queueMu.Lock(t)
	for p.pendingJobs > 0 || p.resourcesHeld > 0 {
		p.idleCond.WaitWith(t, p.queueMu)
	}
	p.inCP = false
	p.queueMu.Unlock(t)
	p.phaseTime += sim.Duration(t.Now() - phaseStart)
}

// PhaseTime returns cumulative wall time spent in cleaning phases.
func (p *Pool) PhaseTime() sim.Duration { return p.phaseTime }

// threadLoop is the body of one cleaner thread.
func (p *Pool) threadLoop(cs *cleanerState) {
	t := cs.t
	for {
		p.queueMu.Lock(t)
		var batch []*Job
		for {
			if cs.id < p.activeN && len(p.queue) > 0 {
				batch = p.takeBatch()
				break
			}
			// Nothing to do (or deactivated): release held resources
			// before parking so the CP can drain.
			if cs.holding {
				p.queueMu.Unlock(t)
				p.release(cs)
				p.queueMu.Lock(t)
				p.resourcesHeld--
				cs.holding = false
				if p.pendingJobs == 0 && p.resourcesHeld == 0 {
					p.idleCond.Broadcast()
				}
				continue // re-check the queue: it may have refilled
			}
			p.cond.WaitWith(t, p.queueMu)
			if p.costs.CleanerWake > 0 {
				// Thread management overhead: every wakeup costs CPU
				// whether or not there is work (§V-B's "increased thread
				// management overhead").
				p.queueMu.Unlock(t)
				t.Consume(p.costs.CleanerWake)
				p.queueMu.Lock(t)
			}
		}
		if !cs.holding {
			cs.holding = true
			p.resourcesHeld++
		}
		p.queueMu.Unlock(t)

		jobStart := t.Now()
		t.Consume(p.costs.CleanerJob)
		p.stats.BatchesRun++
		for _, job := range batch {
			p.runJob(cs, job)
		}
		cs.engaged += sim.Duration(t.Now() - jobStart)
		if tr := t.Tracer(); tr != nil {
			tr.SpanArg(obs.PidThreads, t.TrackID(), "cleaner", "clean batch",
				int64(jobStart), int64(t.Now()), int64(len(batch)))
			tr.Observe("cleaner.batch", int64(t.Now()-jobStart))
		}

		p.queueMu.Lock(t)
		p.pendingJobs -= len(batch)
		p.stats.JobsRun += uint64(len(batch))
		if p.pendingJobs == 0 && p.resourcesHeld == 0 {
			p.idleCond.Broadcast()
		}
		p.queueMu.Unlock(t)
	}
}

// takeBatch pops the next job — and, with batched inode cleaning, up to
// batchSize-1 further small jobs — from the queue. Caller holds queueMu.
func (p *Pool) takeBatch() []*Job {
	batch := []*Job{p.queue[0]}
	p.queue = p.queue[1:]
	if !p.opts.BatchedCleaning || !smallJob(batch[0]) {
		return batch
	}
	for len(batch) < batchSize && len(p.queue) > 0 && smallJob(p.queue[0]) {
		batch = append(batch, p.queue[0])
		p.queue = p.queue[1:]
	}
	return batch
}

// smallJob reports whether a job qualifies for batching: a full-file job
// with few frozen buffers.
func smallJob(j *Job) bool {
	return j.Mode == JobFull && j.File.FrozenCount() <= batchBufferLimit
}

// runJob cleans one job's file and, after a split file's last range job,
// enqueues the finalize job.
func (p *Pool) runJob(cs *cleanerState, job *Job) {
	p.cleanFile(cs, job)
	if job.group != nil {
		job.group.remaining--
		if job.group.remaining == 0 {
			fin := &Job{Vol: job.group.vol, File: job.group.file, Dual: job.group.dual, Mode: JobFinalize}
			p.queueMu.Lock(cs.t)
			p.queue = append(p.queue, fin)
			p.pendingJobs++
			p.queueMu.Unlock(cs.t)
			p.cond.Signal()
		}
	}
}

// cleanFile assigns locations to a file's frozen buffers bottom-up,
// enqueues their CP images to tetrises, and stages the freed old locations
// — the USE step of Fig 2, repeated per dirty buffer.
func (p *Pool) cleanFile(cs *cleanerState, job *Job) {
	t, f := cs.t, job.File
	geo := p.in.a.Geometry()
	var vs *volState // the volume's space, for dual-addressed files
	if job.Dual {
		vs = p.in.vols[job.Vol.ID()]
	}
	loLevel, hiLevel := 0, f.Height()
	switch job.Mode {
	case JobL0Range:
		hiLevel = 0
	case JobFinalize:
		loLevel = 1
	}
	for level := loLevel; level <= hiLevel; level++ {
		var bufs []*fs.Buffer
		if job.Mode == JobL0Range {
			bufs = f.FrozenRange(job.Lo, job.Hi)
		} else {
			bufs = f.FrozenLevel(level)
		}
		for _, b := range bufs {
			t.Consume(p.costs.CleanerPerBuffer)

			// USE: one VBN from the physical bucket.
			for cs.phys == nil || cs.phys.Remaining() == 0 {
				if cs.phys != nil {
					p.in.PutBucket(t, cs.phys)
				}
				cs.phys = p.in.GetBucket(t)
			}
			vbn := cs.phys.vbns[cs.phys.next]
			cs.phys.next++
			if tr := t.Tracer(); tr != nil {
				tr.InstantArg(obs.PidThreads, t.TrackID(), "alloc", "USE",
					int64(t.Now()), int64(vbn))
			}

			// And a VVBN from the volume bucket for dual-addressed files.
			vvbn := block.InvalidVVBN
			if job.Dual {
				vb := cs.virt[job.Vol.ID()]
				for vb == nil || vb.Remaining() == 0 {
					if vb != nil {
						p.in.PutVBucket(t, vb)
					}
					vb = p.in.GetVBucket(t, job.Vol)
					cs.virt[job.Vol.ID()] = vb
				}
				vvbn = vb.use(vbn)
			}

			img, oldVVBN, oldVBN := f.CleanChild(b, vvbn, vbn)
			_, drive, dbn := geo.Locate(vbn)
			p.in.addToTetris(cs.phys.tetris, drive, dbn, img)
			p.stats.BuffersCleaned++

			// Loose accounting: allocation consumed a free block.
			p.in.CleanerCounterAdd(t, cs.tok, p.in.phys.counter, -1)
			if job.Dual {
				p.in.CleanerCounterAdd(t, cs.tok, vs.counter, -1)
			}

			// Stage the frees of the overwritten locations. A snapshot-held
			// old VVBN (summary map) keeps its physical home: the VVBN
			// leaves the active map but the pvbn stays allocated for the
			// snapshot image until the last holding snapshot is deleted.
			snapHeld := job.Dual && oldVVBN != block.InvalidVVBN &&
				job.Vol.Summary.IsSet(uint64(oldVVBN))
			if oldVBN != block.InvalidVBN && oldVBN != 0 && !snapHeld {
				p.stage(cs, p.in.phys, uint64(oldVBN), true)
			}
			if job.Dual && oldVVBN != block.InvalidVVBN {
				// The volume counter tracks allocatable VVBNs (!active &&
				// !summary): a snapshot-held overwrite leaves the active
				// map but stays pinned by its summary bit, so it is not
				// yet allocatable — its credit comes from the snapshot
				// reclaim that drops the last holder.
				p.stage(cs, vs.space, uint64(oldVVBN), !snapHeld)
			}
		}
	}
}

// stage pushes one freed block number onto the thread's stage for sp,
// crediting the space's loose free counter if the block became allocatable,
// and commits the stage from inside the push that fills it.
func (p *Pool) stage(cs *cleanerState, sp *space, bn uint64, credit bool) {
	cs.t.Consume(p.costs.StagePush)
	cs.stages[sp.idx] = append(cs.stages[sp.idx], bn)
	if credit {
		p.in.CleanerCounterAdd(cs.t, cs.tok, sp.counter, 1)
	}
	if len(cs.stages[sp.idx]) >= stageSize {
		p.commitStage(cs, sp)
	}
}

// commitStage hands the thread's stage for sp to the infrastructure.
func (p *Pool) commitStage(cs *cleanerState, sp *space) {
	if len(cs.stages[sp.idx]) == 0 {
		return
	}
	p.in.free(sp, cs.stages[sp.idx])
	cs.stages[sp.idx] = cs.stages[sp.idx][:0]
	p.stats.StageCommits++
}

// release returns every resource the thread holds: buckets go back via
// PUT (physical, then virtual by volume), stages commit in space order, and
// the counter token flushes.
func (p *Pool) release(cs *cleanerState) {
	t := cs.t
	if cs.phys != nil {
		p.in.PutBucket(t, cs.phys)
		cs.phys = nil
	}
	for vid, vb := range cs.virt {
		if vb != nil {
			p.in.PutVBucket(t, vb)
			cs.virt[vid] = nil
		}
	}
	for _, sp := range p.in.spaces {
		p.commitStage(cs, sp)
	}
	p.in.FlushToken(t, cs.tok)
}
