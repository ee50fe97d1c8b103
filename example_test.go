package wafl_test

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// Build a simulated storage server, run a write workload through the White
// Alligator allocator, and read the metrics the paper reports: throughput,
// latency and per-component core usage. The committed image is a real file
// system, which fsck checks.
func Example_quickstart() {
	// A 20-core all-SSD system, like the paper's mid-range testbed.
	cfg := wafl.DefaultConfig()
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sys.Shutdown()

	// One file per volume, one sequential-write client per file.
	for vol := 0; vol < cfg.Volumes; vol++ {
		ino := sys.CreateFileDirect(vol, 8192)
		sys.ClientThread(fmt.Sprintf("client-%d", vol), func(c *wafl.ClientCtx) {
			fbn := wafl.FBN(0)
			for c.Alive() {
				c.Write(vol, ino, fbn, 8) // one 32 KiB write op
				fbn = (fbn + 8) % 8000
			}
		})
	}

	// 20ms of simulated warm-up, then a 60ms window.
	res := sys.Measure(20*wafl.Millisecond, 60*wafl.Millisecond)
	fmt.Println(res)
	fmt.Printf("write allocation used %.2f cores (%.2f cleaner + %.2f infrastructure)\n",
		res.Cores.WriteAllocation(), res.Cores.Cleaner, res.Cores.Infra)

	if err := sys.Quiesce(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(sys.Fsck())
	// Output:
	// window=60.000ms ops=3220 (53667 ops/s, 1677.1 MB/s) lat avg=74.500us p50=74.500us p99=74.500us cores total=6.36 (client=3.97 cleaner=1.21 infra=0.78 cp=0.00 raid=0.33 waff=0.05) cps=8 stalls=0 fullstripe=85%
	// write allocation used 1.99 cores (1.21 cleaner + 0.78 infrastructure)
	// fsck: refs=32267 used=32267 leaked=0 double=0 missing=0 containerErrs=0 vvbnErrs=0 snapErrs=0 idxErrs=0 files=4 snaps=0 errs=0
}

// The paper's headline result: the same sequential-write workload under the
// four §V-A parallelization permutations, showing how cleaner-thread and
// infrastructure parallelism compose (Figure 4: +7% infra-only, +82%
// cleaners-only, +274% both, with ~6.2 write-allocation cores).
func Example_scaling() {
	permutations := []struct {
		name     string
		infra    bool
		cleaners int
	}{
		{"serialized (2008 baseline)", false, 1},
		{"parallel infrastructure only", true, 1},
		{"parallel cleaner threads only", false, 6},
		{"White Alligator (both parallel)", true, 6},
	}
	var base float64
	for _, p := range permutations {
		cfg := wafl.DefaultConfig()
		cfg.Allocator.InfraParallel = p.infra
		cfg.Allocator.InitialCleaners = p.cleaners
		cfg.Allocator.MaxCleaners = p.cleaners
		sys, err := wafl.NewSystem(cfg)
		if err != nil {
			fmt.Println(err)
			return
		}
		workload.DefaultSeqWrite().Attach(sys)
		res := sys.Measure(50*wafl.Millisecond, 100*wafl.Millisecond)
		if base == 0 {
			base = res.OpsPerSec
		}
		fmt.Printf("%-32s %7.0f ops/s (%+.0f%%)  walloc=%.2f cores (%.2f cleaner + %.2f infra)\n",
			p.name, res.OpsPerSec, (res.OpsPerSec/base-1)*100,
			res.Cores.WriteAllocation(), res.Cores.Cleaner, res.Cores.Infra)
		sys.Shutdown()
	}
	// Output:
	// serialized (2008 baseline)         30480 ops/s (+0%)  walloc=1.10 cores (0.70 cleaner + 0.40 infra)
	// parallel infrastructure only       30480 ops/s (+0%)  walloc=1.13 cores (0.72 cleaner + 0.41 infra)
	// parallel cleaner threads only      58120 ops/s (+91%)  walloc=2.19 cores (1.35 cleaner + 0.84 infra)
	// White Alligator (both parallel)   109610 ops/s (+260%)  walloc=4.14 cores (2.56 cleaner + 1.58 infra)
}

// The consistency-point crash contract: a power loss mid-CP loses nothing
// that was acknowledged. The last committed superblock plus NVRAM log replay
// reconstruct every logged write, and the recovered image passes fsck.
func Example_crashRecovery() {
	cfg := wafl.DefaultConfig()
	cfg.PayloadBytes = 4096 // store full content so verification is byte-exact
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}

	ino := sys.CreateFileDirect(0, 4096)
	acked := 0
	sys.ClientThread("writer", func(c *wafl.ClientCtx) {
		for i := 0; c.Alive() && i < 3000; i++ {
			c.Write(0, ino, wafl.FBN(i%2048), 2)
			acked = i + 1
		}
	})

	// Crash while CPs are mid-flight and the NVRAM log holds
	// not-yet-checkpointed operations.
	sys.Run(120 * wafl.Millisecond)
	fmt.Printf("crashing at t=%v: %d ops acknowledged, %d CPs committed\n", wafl.Duration(sys.Now()), acked, sys.Stats().CPCount)
	sys.Crash()

	rec, err := sys.Recover()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer rec.Shutdown()
	fmt.Printf("mounted CP %d and replayed the NVRAM log\n", rec.Stats().CPCount)

	// Every acknowledged write must be intact.
	bad := 0
	for fbn := wafl.FBN(0); fbn < 2048; fbn++ {
		if rec.VerifyRead(0, ino, fbn) != nil && rec.VerifyAgainst(0, ino, fbn) != nil {
			bad++
		}
	}
	fmt.Printf("content check: %d mismatches\n", bad)

	if err := rec.Quiesce(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("post-recovery", rec.Fsck())
	// Output:
	// crashing at t=130.000ms: 1678 ops acknowledged, 2 CPs committed
	// mounted CP 2 and replayed the NVRAM log
	// content check: 0 mismatches
	// post-recovery fsck: refs=1718 used=1718 leaked=0 double=0 missing=0 containerErrs=0 vvbnErrs=0 snapErrs=0 idxErrs=0 files=1 snaps=0 errs=0
}

// The §V-B dynamic cleaner-thread tuner reacting to a changing workload:
// threads ramp up under a write burst, and the decision trace shows each
// optimization period's utilization.
func Example_dynamicTuning() {
	cfg := wafl.DefaultConfig()
	cfg.Allocator.Dynamic = true
	cfg.Allocator.InitialCleaners = 1
	cfg.Allocator.MaxCleaners = 6
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sys.Shutdown()

	// Light load: few threads.
	light := workload.DefaultSeqWrite()
	light.Clients = 4
	light.Attach(sys)
	sys.Run(100 * wafl.Millisecond)
	fmt.Printf("light load (4 clients): %d active cleaner threads\n", sys.Stats().Cleaners)

	// Heavy burst: more clients pile on, and threads follow.
	burst := workload.DefaultSeqWrite()
	burst.Clients = 32
	burst.Attach(sys)
	sys.Run(150 * wafl.Millisecond)
	fmt.Printf("heavy burst (36 clients): %d active cleaner threads\n", sys.Stats().Cleaners)

	// The tuner's decision trace (50ms optimization period, activate >90%,
	// park <50%).
	for _, s := range sys.TunerSamples() {
		fmt.Printf("t=%-10v utilization=%4.0f%%  active=%d\n", wafl.Duration(s.At), s.Utilization*100, s.Active)
	}
	// Output:
	// light load (4 clients): 2 active cleaner threads
	// heavy burst (36 clients): 4 active cleaner threads
	// t=50.000ms   utilization= 100%  active=2
	// t=100.000ms  utilization=  87%  active=2
	// t=150.000ms  utilization= 100%  active=3
	// t=200.000ms  utilization=  89%  active=3
	// t=250.000ms  utilization= 100%  active=4
}
