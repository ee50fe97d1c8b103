package workload

import (
	"fmt"
	"math"

	"wafl"
	"wafl/internal/fifo"
)

// Phase is one segment of an open-loop arrival schedule: for Dur, arrivals
// come at RateMul times the workload's base rate. Chaining phases builds
// diurnal curves (e.g. 0.5x night, 1x day, 1.5x evening) or bursts (1x,
// 4x, 1x); the schedule cycles until the run ends.
type Phase struct {
	Name    string
	Dur     wafl.Duration
	RateMul float64
}

// OpClass labels an arrived operation for QoS purposes.
type OpClass int

// Operation classes: latency-sensitive ops are never gated by admission
// control; bulk ops are delayed and shed under NVRAM pressure.
const (
	ClassLS OpClass = iota
	ClassBulk
)

// OpenLoop is the open-loop arrival workload: a Poisson arrival process
// (optionally phase-modulated) over thousands of lightweight client
// streams, multiplexed onto a small pool of simulated worker threads.
// Unlike the closed-loop generators, arrivals do not self-throttle — when
// the system falls behind, operations queue and sojourn time (completion
// minus arrival, queue wait included) grows without bound. That makes
// overload visible as tail latency rather than as throughput collapse,
// which is how production filers experience it.
//
// Each arrival is assigned a stream (its file), a class (latency-sensitive
// or bulk), and an op type (read or write). The two classes have separate
// FIFO queues and worker pools — the usual QoS structure — so admission
// backpressure applied to bulk writes parks only bulk workers and never
// head-of-line blocks a latency-sensitive op. Bulk writes go through
// WriteBulk and may be delayed or shed by admission control. Per-class
// sojourn histograms accumulate across the whole run.
type OpenLoop struct {
	Streams     int     // lightweight client streams (one small file each)
	Workers     int     // worker threads draining the latency-sensitive queue
	BulkWorkers int     // worker threads draining the bulk queue
	RatePerSec  float64 // base aggregate arrival rate (merged Poisson)
	Phases      []Phase // rate-multiplier schedule; empty = constant rate
	FileBlocks  uint64  // per-stream file size
	Volumes     int     // stripe streams over this many (global) volumes

	// Results, populated while the workload runs.
	LSLat        *wafl.TraceHistogram // sojourn time of latency-sensitive ops
	BulkLat      *wafl.TraceHistogram // sojourn time of admitted bulk ops
	Arrivals     uint64               // ops generated
	Dropped      uint64               // always 0: the queues are unbounded and drop no arrival
	Shed         uint64               // bulk writes refused by admission
	Completed    uint64               // ops finished by workers
	LSQueueMax   int                  // high-water LS pending-op count
	BulkQueueMax int                  // high-water bulk pending-op count
}

// DefaultOpenLoop returns a burst-shaped open-loop load: a baseline phase,
// a 4x burst, and a recovery phase, over 2000 streams on 8 workers.
func DefaultOpenLoop() OpenLoop {
	return OpenLoop{
		Streams:     2000,
		Workers:     8,
		BulkWorkers: 6,
		RatePerSec:  30000,
		Phases: []Phase{
			{Name: "base", Dur: 80 * wafl.Millisecond, RateMul: 1.0},
			{Name: "burst", Dur: 120 * wafl.Millisecond, RateMul: 4.0},
			{Name: "recover", Dur: 100 * wafl.Millisecond, RateMul: 0.5},
		},
		FileBlocks: 64,
		Volumes:    4,
	}
}

// An arrival is a read 30 % of the time, else a write, bulk-class 60 % of the
// time; either moves 2 blocks.
const (
	openReadPct  = 30
	openBulkPct  = 60
	openOpBlocks = 2
)

// openOp is one arrived-but-not-yet-served operation.
type openOp struct {
	stream  int
	arrival wafl.Time
	fbn     wafl.FBN
	read    bool
	bulk    bool
}

// Attach creates the stream files and spawns the arrival generator plus the
// worker pool. Call before Run/Measure.
func (w *OpenLoop) Attach(sys *wafl.System) {
	if w.LSLat == nil {
		w.LSLat = wafl.NewHistogram("openloop.ls")
	}
	if w.BulkLat == nil {
		w.BulkLat = wafl.NewHistogram("openloop.bulk")
	}
	vols := make([]int, w.Streams)
	inos := make([]uint64, w.Streams)
	for i := 0; i < w.Streams; i++ {
		vols[i] = i % w.Volumes
		inos[i] = sys.CreateFileDirect(vols[i], w.FileBlocks)
	}

	var lsQueue, bulkQueue fifo.Queue[openOp]
	lsReady := sys.NewWaitQueue("openloop-ls")
	bulkReady := sys.NewWaitQueue("openloop-bulk")

	// The arrival generator: one simulated thread producing the merged
	// Poisson process for all streams (the superposition of independent
	// Poisson streams is Poisson at the summed rate, so one generator
	// models thousands of streams exactly). Phase multipliers rescale the
	// rate; sampling uses the scheduler's seeded RNG, so the schedule is
	// deterministic per seed.
	var cycle wafl.Duration
	for _, p := range w.Phases {
		cycle += p.Dur
	}
	sys.ClientThread("openloop-gen", func(c *wafl.ClientCtx) {
		epoch := c.Now()
		for c.Alive() {
			mul := 1.0
			if cycle > 0 {
				off := wafl.Duration(c.Now()-epoch) % cycle
				for _, p := range w.Phases {
					if off < p.Dur {
						mul = p.RateMul
						break
					}
					off -= p.Dur
				}
			}
			rate := w.RatePerSec * mul
			if rate <= 0 {
				c.Think(wafl.Millisecond)
				continue
			}
			// Exponential inter-arrival: -ln(U)/rate seconds.
			u := c.RandFloat64()
			for u == 0 {
				u = c.RandFloat64()
			}
			gap := wafl.Duration(-math.Log(u) / rate * float64(wafl.Second))
			if gap < 1 {
				gap = 1
			}
			c.Think(gap)
			if !c.Alive() {
				break
			}
			op := openOp{
				stream:  int(c.Rand(int64(w.Streams))),
				arrival: c.Now(),
				read:    int(c.Rand(100)) < openReadPct,
			}
			op.fbn = wafl.FBN(c.Rand(int64(w.FileBlocks) - openOpBlocks + 1))
			if !op.read {
				op.bulk = int(c.Rand(100)) < openBulkPct
			}
			w.Arrivals++
			if op.bulk {
				bulkQueue.Push(op)
				w.BulkQueueMax = max(w.BulkQueueMax, bulkQueue.Len())
				bulkReady.Signal()
			} else {
				lsQueue.Push(op)
				w.LSQueueMax = max(w.LSQueueMax, lsQueue.Len())
				lsReady.Signal()
			}
		}
		lsReady.Broadcast() // release parked workers at shutdown
		bulkReady.Broadcast()
	})

	worker := func(queue *fifo.Queue[openOp], ready *wafl.WaitQueue) func(*wafl.ClientCtx) {
		return func(c *wafl.ClientCtx) {
			for c.Alive() {
				for queue.Len() == 0 {
					if !c.Alive() {
						return
					}
					c.Wait(ready)
				}
				op := queue.Pop()
				vol, ino := vols[op.stream], inos[op.stream]
				admitted := true
				switch {
				case op.read:
					c.Read(vol, ino, op.fbn, openOpBlocks)
				case op.bulk:
					_, admitted = c.WriteBulk(vol, ino, op.fbn, openOpBlocks)
				default:
					c.Write(vol, ino, op.fbn, openOpBlocks)
				}
				// Sojourn time = completion - arrival: queue wait included.
				// That is the open-loop latency a client stream experiences.
				sojourn := int64(c.Now() - op.arrival)
				if op.bulk {
					if admitted {
						w.BulkLat.Observe(sojourn)
					} else {
						w.Shed++
					}
				} else {
					w.LSLat.Observe(sojourn)
				}
				w.Completed++
			}
		}
	}
	for i := 0; i < w.Workers; i++ {
		sys.ClientThread(fmt.Sprintf("openloop-ls-%d", i), worker(&lsQueue, lsReady))
	}
	for i := 0; i < w.BulkWorkers; i++ {
		sys.ClientThread(fmt.Sprintf("openloop-bulk-%d", i), worker(&bulkQueue, bulkReady))
	}
}
