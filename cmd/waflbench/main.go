// Command waflbench runs the harness registry by name: the paper's
// evaluation results (§V) — every figure and the §V-C batching table — the
// later studies, and the crash-sweep and SLO gates of `make ci`, each printed
// as a text table. Absolute numbers are simulator units; the shapes are the
// reproduction target (see EXPERIMENTS.md). The tracked performance numbers
// are `go run ./bench`, not this command.
//
// Usage:
//
//	waflbench                 # every table (no gates)
//	waflbench -exp fig4       # one registry entry; an unknown name lists them
//	waflbench -window 400ms   # measurement window
//	waflbench -exp fig4 -trace fig4   # dump fig4-NNN.json Perfetto timelines
//	waflbench -exp fig4 -cpuprofile cpu.pprof -memprofile mem.pprof   # host profiles
//	waflbench -exp flexgroup -members 4   # cluster scaling, widths 1/2/4
//	waflbench -exp crashsweep     # crash-schedule fault-injection sweep (§II-C); exit 1 on failure
//	waflbench -exp clustersweep -points 12 -seeds 1,2,3   # a deeper member-crash sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"wafl"
	"wafl/harness"
)

func main() {
	rc := harness.DefaultRun()
	exp := flag.String("exp", "all", "registry entry to run: "+names()+", or all (every entry that is not a CI gate)")
	window := flag.Duration("window", 400*time.Millisecond, "measurement window (simulated)")
	warmup := flag.Duration("warmup", 200*time.Millisecond, "warmup (simulated)")
	cleaners := flag.Int("cleaners", rc.Cleaners, "parallel cleaner-thread count for the permutation experiments")
	members := flag.Int("members", 1, "cluster width: flexgroup sweeps 1..members (doubling); other entries run at this width")
	trace := flag.String("trace", "", "dump one Chrome trace JSON per measurement as <prefix>-NNN.json")
	traceEvents := flag.Int("trace-events", 0, "trace ring-buffer capacity in events (0 = default)")
	points := flag.Int("points", 0, "sweeps: crash points per seed (clonesweep: CP boundaries); 0 = the CI default")
	seeds := flag.String("seeds", "", "sweeps: comma-separated workload seeds; empty = the CI default")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of the -exp run (every measurement's set-up, warm-up and window) to this file")
	memprofile := flag.String("memprofile", "", "write the host allocation profile (pprof \"allocs\") of the -exp run to this file")
	flag.Parse()

	rc.Window = wafl.Duration(window.Nanoseconds())
	rc.Warmup = wafl.Duration(warmup.Nanoseconds())
	rc.Cleaners = *cleaners
	rc.Points = *points
	if *members > 1 {
		rc.Base.Members = *members
	}
	for _, f := range strings.FieldsFunc(*seeds, func(r rune) bool { return r == ',' || r == ' ' }) {
		seed, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-seeds: %v\n", err)
			os.Exit(2)
		}
		rc.Seeds = append(rc.Seeds, seed)
	}
	if !known(*exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; the registry has: %s, all\n", *exp, names())
		os.Exit(2)
	}

	if *trace != "" {
		harness.EnableTracing(*trace, *traceEvents)
	}
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	for _, e := range harness.Experiments {
		if !selected(*exp, e.Name, e.Gate) {
			continue
		}
		start := time.Now()
		t, err := e.Run(rc)
		if t.ID != "" {
			fmt.Println(t.String())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %.1fs host time)\n\n", e.Name, time.Since(start).Seconds())
	}
	stopProfiles()
}

// selected reports whether -exp value sel runs the registry entry: its own
// name, or "all" for every entry that is not a CI gate.
func selected(sel, name string, gate bool) bool {
	return strings.EqualFold(sel, name) || (sel == "all" && !gate)
}

// known reports whether sel selects anything in the registry.
func known(sel string) bool {
	for _, e := range harness.Experiments {
		if selected(sel, e.Name, e.Gate) {
			return true
		}
	}
	return false
}

// names lists the registry in order, for the help text and the unknown-name
// error.
func names() string {
	var out []string
	for _, e := range harness.Experiments {
		out = append(out, e.Name)
	}
	return strings.Join(out, " ")
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
