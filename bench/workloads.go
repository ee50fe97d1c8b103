package main

import (
	"wafl"
	"wafl/harness"
	"wafl/workload"
)

// Simulated measurement sizes: the bench_test.go sizes the ROADMAP profile
// used. overload_burst instead runs its whole 300 ms phase schedule as the
// window, from a cold start: the arrival generator's epoch is thread start,
// so a simulated warm-up would shift the phases.
const (
	stdWarmup = 150 * wafl.Millisecond
	stdWindow = 250 * wafl.Millisecond
)

// workloadDef is one benchmark workload: a system configuration, a client
// load attached to it, and what the correctness check needs to know about
// the files the load creates.
type workloadDef struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text

	warmup, window wafl.Duration
	// nominalWindowS is the host wall-clock seconds one window took on the
	// 2-vCPU host where the benchmark was defined. It only converts the
	// driver's -seconds into a rep count (options.timedReps).
	nominalWindowS float64
	// hostWarmup: before the measured system is built, run a discarded copy
	// of the workload for one window. A workload with no simulated warm-up
	// would otherwise start its window on a cold host heap (first-touch page
	// faults, GC pacing not settled) and have a set-up too short to time.
	hostWarmup bool

	config func(seed int64) wafl.Config
	// attach creates the files and client threads. The open-loop workload
	// returns its generator state (arrival counters, sojourn histograms);
	// closed-loop workloads return nil. quick asks for the smoke test's
	// shrunken client and file populations.
	attach func(sys *wafl.System, quick bool) *workload.OpenLoop

	volumes    int    // volumes the load creates files on
	fileBlocks uint64 // addressable blocks per created file (verification span)
	// agedTag: set-up overwrites carry payload tag 1 (System.AgeOverwrite),
	// so a block is valid in either generation.
	agedTag bool
}

func defaultConfig(seed int64) wafl.Config {
	cfg := wafl.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// workloads lists the four benchmark workloads in run order.
var workloads = []workloadDef{
	{
		name:   "seqwrite",
		why:    "56 closed-loop clients x 32 KiB sequential overwrites: the data path (fs.WriteBlock, block.Clone, raid XOR, cleaners) does the work; allocator scan and reads almost none",
		warmup: stdWarmup, window: stdWindow, nominalWindowS: 2.4,
		config: defaultConfig,
		attach: func(sys *wafl.System, quick bool) *workload.OpenLoop {
			w := workload.DefaultSeqWrite()
			if quick {
				w.Clients = 8
			}
			w.Attach(sys)
			return nil
		},
		volumes:    workload.DefaultSeqWrite().Volumes,
		fileBlocks: workload.DefaultSeqWrite().FileBlocks,
	},
	{
		name:   "agedrand",
		why:    "48 closed-loop clients x 8 KiB random overwrites on volumes aged to ~82% under snapshots: work moves to bitmap.Index.FindFree, infra fills, CP metafile phases; set-up heavy",
		warmup: stdWarmup, window: stdWindow, nominalWindowS: 2.6,
		config: func(seed int64) wafl.Config {
			// The harness.AgedVolume geometry with the hierarchical free
			// index on (the default allocator option).
			cfg := defaultConfig(seed)
			cfg.Volumes = workload.DefaultAgedVol().Volumes
			cfg.VolumeBlocks = 1 << 18
			cfg.DriveBlocks = 131072
			return cfg
		},
		attach: func(sys *wafl.System, quick bool) *workload.OpenLoop {
			w := workload.DefaultAgedVol()
			if quick {
				// A sliver of the prefill and one short aging pass: enough
				// to exercise every code path in a fraction of a second.
				w.FilesPerV, w.FileBlocks, w.AgeSpan = 1, 4096, 1024
				w.AgeRounds, w.AgePerRound, w.Clients = 1, 128, 8
			}
			w.Attach(sys)
			return nil
		},
		volumes:    workload.DefaultAgedVol().Volumes,
		fileBlocks: workload.DefaultAgedVol().FileBlocks,
		agedTag:    true,
	},
	{
		name:   "nfsmix",
		why:    "64 closed-loop clients, 40% small writes / 35% reads / 25% getattr over 1600 files, working set 102k blocks >> 8k-block cache: sim, waffinity dispatch and per-inode CP phases dominate",
		warmup: stdWarmup, window: stdWindow, nominalWindowS: 1.9,
		config: func(seed int64) wafl.Config {
			cfg := defaultConfig(seed)
			cfg.BCacheBlocks = 8192
			return cfg
		},
		attach: func(sys *wafl.System, quick bool) *workload.OpenLoop {
			w := workload.DefaultNFSMix()
			if quick {
				w.Clients, w.FilesPerV = 8, 50
			}
			w.Attach(sys)
			return nil
		},
		volumes:    workload.DefaultNFSMix().Volumes,
		fileBlocks: workload.DefaultNFSMix().FileBlocks,
	},
	{
		name:   "overload_burst",
		why:    "open loop: 2000 streams, Poisson 30k/s x {1, 4, 0.5} burst schedule, NVLog watermark admission on: the only workload that sheds load and whose hot set partly fits the cache",
		window: 300 * wafl.Millisecond, nominalWindowS: 1.3,
		hostWarmup: true,
		config:     overloadConfig,
		attach: func(sys *wafl.System, quick bool) *workload.OpenLoop {
			w := workload.DefaultOpenLoop()
			if quick {
				w.Streams = 200
			}
			w.Attach(sys)
			return &w
		},
		volumes:    workload.DefaultOpenLoop().Volumes,
		fileBlocks: workload.DefaultOpenLoop().FileBlocks,
	},
}

func overloadConfig(seed int64) wafl.Config {
	cfg := harness.OverloadConfig(defaultConfig(seed))
	cfg.Admission.Enabled = true
	return cfg
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Rate ladder (overload_burst only): constant-rate open-loop rungs, 200 ms
// each on a fresh system, chosen so the lowest passes and the highest fails
// at the commit that defined the benchmark. sim_slo_rate_ops_per_s is the
// highest rung whose latency-sensitive p99.9 sojourn stays within ladderSLO
// and whose backlog is not larger at the end than at the midpoint.
var ladderRungs = []float64{20000, 40000, 60000, 80000, 100000, 120000}

const (
	ladderRung = 200 * wafl.Millisecond
	ladderSLO  = 20 * wafl.Millisecond
)
