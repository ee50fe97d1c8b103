// Command waflbench regenerates the paper's evaluation results (§V): every
// figure and the §V-C batching table, printed as text tables. Absolute
// numbers are simulator units; the shapes are the reproduction target (see
// EXPERIMENTS.md).
//
// Usage:
//
//	waflbench                 # run everything
//	waflbench -exp fig4       # one experiment: fig4..fig9, batch, ablations
//	waflbench -window 400ms   # measurement window
//	waflbench -exp fig4 -trace fig4   # dump fig4-NNN.json Perfetto timelines
//	waflbench -exp fig4 -cpuprofile cpu.pprof -memprofile mem.pprof   # host profiles
//	waflbench -crashsweep     # crash-schedule fault-injection sweep (§II-C)
//	waflbench -clustersweep   # independent member-crash sweep on a cluster
//	waflbench -exp agedvol -benchjson BENCH.json   # machine-readable results
//	waflbench -exp flexgroup -members 4 -benchjson BENCH.json  # cluster scaling
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"wafl"
	"wafl/harness"
	"wafl/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4 fig5 fig6 fig7 fig8 fig9 batch ablations snapchurn agedvol clonefleet parallelcp flexgroup overload all")
	benchjson := flag.String("benchjson", "", "write machine-readable results (ops/sec, fill words, walloc cores, get waits) to this JSON file")
	window := flag.Duration("window", 400*time.Millisecond, "measurement window (simulated)")
	warmup := flag.Duration("warmup", 200*time.Millisecond, "warmup (simulated)")
	cleaners := flag.Int("cleaners", 4, "parallel cleaner-thread count for the permutation experiments")
	members := flag.Int("members", 1, "cluster width: flexgroup sweeps 1..members (doubling); other experiments run at this width")
	trace := flag.String("trace", "", "dump one Chrome trace JSON per measurement as <prefix>-NNN.json")
	traceEvents := flag.Int("trace-events", 0, "trace ring-buffer capacity in events (0 = default)")
	crashsweep := flag.Bool("crashsweep", false, "run the crash-schedule fault-injection sweep instead of the figures")
	crashPoints := flag.Int("crashpoints", 8, "crashsweep: event-index crash points per seed")
	crashSeeds := flag.String("crashseeds", "1,2", "crashsweep: comma-separated workload seeds")
	crashPhases := flag.Int("crashphases", 9, "crashsweep: CP phase-boundary crash points (0 = off)")
	clustersweep := flag.Bool("clustersweep", false, "run the independent member-crash sweep instead of the figures")
	clonecheck := flag.Bool("clonecheck", false, "run the clone/restore crash sweep (clone create, split, SnapRestore crashed at CP phase boundaries) instead of the figures")
	clonePoints := flag.Int("clonepoints", 18, "clonecheck: CP phase-boundary crash points inside the clone-ops window")
	overloadcheck := flag.Bool("overloadcheck", false, "run the admission-control SLO check instead of the figures (exit 1 on violation)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of the -exp run (every measurement's set-up, warm-up and window) to this file")
	memprofile := flag.String("memprofile", "", "write the host allocation profile (pprof \"allocs\") of the -exp run to this file")
	flag.Parse()

	if *overloadcheck {
		rc := harness.DefaultRun()
		start := time.Now()
		if err := harness.OverloadCheck(rc); err != nil {
			fmt.Fprintf(os.Stderr, "overloadcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("overloadcheck: admission SLO holds (%.1fs host time)\n", time.Since(start).Seconds())
		return
	}

	if *crashsweep {
		runCrashSweep(*crashPoints, *crashSeeds, *crashPhases)
		return
	}
	if *clustersweep {
		runClusterSweep(*members, *crashPoints, *crashSeeds)
		return
	}
	if *clonecheck {
		runCloneCheck(*clonePoints)
		return
	}

	if *trace != "" {
		harness.EnableTracing(*trace, *traceEvents)
	}
	defer startProfiles(*cpuprofile, *memprofile)()

	rc := harness.DefaultRun()
	rc.Window = wafl.Duration(window.Nanoseconds())
	rc.Warmup = wafl.Duration(warmup.Nanoseconds())
	if *members > 1 {
		rc.Base.Members = *members
	}

	var benchResults []harness.BenchResult

	run := func(name string, fn func() (harness.Table, error)) {
		if *exp != "all" && !strings.EqualFold(*exp, name) {
			return
		}
		start := time.Now()
		t, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		fmt.Printf("(%s took %.1fs host time)\n\n", name, time.Since(start).Seconds())
	}

	if *exp == "inspect" {
		inspect(rc, *cleaners)
		return
	}

	run("fig4", func() (harness.Table, error) {
		t, _, err := harness.Fig4(rc, *cleaners)
		return t, err
	})
	run("fig5", func() (harness.Table, error) {
		t, _, err := harness.Fig5(rc, 6)
		return t, err
	})
	run("fig6", func() (harness.Table, error) {
		t, _, err := harness.Fig6(rc, *cleaners)
		return t, err
	})
	run("fig7", func() (harness.Table, error) {
		t, _, err := harness.Fig7(rc, *cleaners)
		return t, err
	})
	run("fig8", func() (harness.Table, error) {
		t, _, err := harness.Fig8(rc)
		return t, err
	})
	run("fig9", func() (harness.Table, error) {
		t, _, err := harness.Fig9(rc)
		return t, err
	})
	run("batch", func() (harness.Table, error) {
		t, _, err := harness.BatchedCleaning(rc)
		return t, err
	})
	run("ablations", func() (harness.Table, error) {
		t, err := harness.Ablations(rc)
		return t, err
	})
	run("snapchurn", func() (harness.Table, error) {
		t, _, err := harness.SnapshotChurn(rc)
		return t, err
	})
	run("agedvol", func() (harness.Table, error) {
		t, res, err := harness.AgedVolume(rc)
		benchResults = append(benchResults, res...)
		return t, err
	})
	run("clonefleet", func() (harness.Table, error) {
		t, res, err := harness.CloneFleet(rc)
		benchResults = append(benchResults, res...)
		return t, err
	})
	run("parallelcp", func() (harness.Table, error) {
		t, res, err := harness.ParallelCP(rc)
		benchResults = append(benchResults, res...)
		return t, err
	})
	run("overload", func() (harness.Table, error) {
		t, points, err := harness.Overload(rc)
		benchResults = append(benchResults, harness.OverloadBench(points, rc.Window)...)
		return t, err
	})
	run("flexgroup", func() (harness.Table, error) {
		fc := harness.DefaultFlexgroup()
		fc.Base = harness.DefaultRun().Base // widths come from the sweep, not -members
		fc.MemberCounts = nil
		for n := 1; n <= *members; n *= 2 {
			fc.MemberCounts = append(fc.MemberCounts, n)
		}
		if len(fc.MemberCounts) < 2 {
			fc.MemberCounts = []int{1, 2, 4}
		}
		t, _, res, err := harness.Flexgroup(fc)
		benchResults = append(benchResults, res...)
		return t, err
	})

	if *benchjson != "" {
		if len(benchResults) == 0 {
			fmt.Fprintf(os.Stderr, "-benchjson: no experiments produced machine-readable results (try -exp agedvol)\n")
			os.Exit(1)
		}
		if err := harness.WriteBenchJSON(*benchjson, benchResults); err != nil {
			fmt.Fprintf(os.Stderr, "-benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(benchResults), *benchjson)
	}
}

// startProfiles starts the host profiles named on the command line (empty =
// off) and returns the function that stops them and writes the files.
func startProfiles(cpu, mem string) (stop func()) {
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		os.Exit(1)
	}
	var cpuFile *os.File
	if cpu != "" {
		var err error
		if cpuFile, err = os.Create(cpu); err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatal(err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal(err)
			}
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fatal(err)
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// runCrashSweep executes the crash-schedule sweep and exits nonzero if any
// crash point fails verification.
func runCrashSweep(points int, seeds string, phases int) {
	cfg := harness.DefaultCrashSweep()
	cfg.Points = points
	cfg.Phases = phases
	cfg.Seeds = nil
	for _, s := range strings.Split(seeds, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		var seed int64
		if _, err := fmt.Sscanf(s, "%d", &seed); err != nil {
			fmt.Fprintf(os.Stderr, "crashsweep: bad seed %q: %v\n", s, err)
			os.Exit(2)
		}
		cfg.Seeds = append(cfg.Seeds, seed)
	}
	if len(cfg.Seeds) == 0 {
		fmt.Fprintln(os.Stderr, "crashsweep: no seeds")
		os.Exit(2)
	}
	start := time.Now()
	tab, res, err := harness.CrashSweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashsweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(tab.String())
	fmt.Printf("(crashsweep took %.1fs host time)\n", time.Since(start).Seconds())
	if !res.OK() {
		os.Exit(1)
	}
}

// runCloneCheck executes only the clone-ops crash schedule — the scripted
// snapshot → clone create → divergence → split → SnapRestore window crashed
// at consecutive CP phase boundaries — and exits nonzero on any failure.
func runCloneCheck(points int) {
	cfg := harness.DefaultCrashSweep()
	cfg.Points = 0
	cfg.Phases = 0
	cfg.Overload = false
	cfg.CloneOps = true
	cfg.ClonePoints = points
	cfg.Seeds = []int64{1}
	start := time.Now()
	tab, res, err := harness.CrashSweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clonecheck: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(tab.String())
	fmt.Printf("(clonecheck took %.1fs host time)\n", time.Since(start).Seconds())
	if !res.OK() {
		os.Exit(1)
	}
}

// runClusterSweep executes the independent member-crash sweep and exits
// nonzero if any crash point fails verification.
func runClusterSweep(members, points int, seeds string) {
	cfg := harness.DefaultClusterSweep()
	if members > 1 {
		cfg.Base.Members = members
	}
	cfg.Points = points
	cfg.Seeds = nil
	for _, s := range strings.Split(seeds, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		var seed int64
		if _, err := fmt.Sscanf(s, "%d", &seed); err != nil {
			fmt.Fprintf(os.Stderr, "clustersweep: bad seed %q: %v\n", s, err)
			os.Exit(2)
		}
		cfg.Seeds = append(cfg.Seeds, seed)
	}
	if len(cfg.Seeds) == 0 {
		fmt.Fprintln(os.Stderr, "clustersweep: no seeds")
		os.Exit(2)
	}
	start := time.Now()
	tab, res, err := harness.ClusterSweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clustersweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(tab.String())
	fmt.Printf("(clustersweep took %.1fs host time)\n", time.Since(start).Seconds())
	if !res.OK() {
		os.Exit(1)
	}
}

// inspect runs one workload/config pair and dumps detailed internals —
// the calibration and debugging view.
func inspect(rc harness.RunConfig, cleaners int) {
	for _, mode := range []struct {
		name     string
		infra    bool
		cleaners int
	}{
		{"baseline", false, 1},
		{"wa", true, cleaners},
	} {
		cfg := rc.Base
		cfg.Allocator.InfraParallel = mode.infra
		cfg.Allocator.InitialCleaners = mode.cleaners
		cfg.Allocator.MaxCleaners = mode.cleaners
		sys, err := wafl.NewSystem(cfg)
		if err != nil {
			panic(err)
		}
		w := workload.DefaultSeqWrite()
		w.Attach(sys)
		res := sys.Measure(rc.Warmup, rc.Window)
		fmt.Printf("[%s] %s\n", mode.name, res)
		fmt.Printf("[%s] %s\n", mode.name, sys.InfraStats())
		fmt.Printf("[%s] cp: %s\n\n", mode.name, sys.CPReport())
	}
}
