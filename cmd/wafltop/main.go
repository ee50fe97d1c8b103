// Command wafltop is the introspection tool: it runs a short workload and
// renders the window's results and per-component core usage, every layer's
// non-zero counters, gauges and latency histograms over that window
// (wafl.Stats: client, admission, the White Alligator bucket/tetris/stage
// lifecycle of Fig 2-3, cleaner pool, CP engine and its phases, buffer cache,
// RAID, drives, Waffinity, the scheduler's CPU time per category, thread
// switches and waits, NVRAM fill), with -members N one row per member read
// off its window's Stats, and the Hierarchical Waffinity affinity tree (paper
// Fig 1) with per-affinity message counts.
//
// Usage:
//
//	wafltop                  # run a mixed workload for 200ms and report
//	wafltop -tree            # affinity tree only
//	wafltop -run 500ms -workload random
//	wafltop -trace out.json  # also dump a Chrome/Perfetto trace timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wafl"
	"wafl/workload"
)

func main() {
	treeOnly := flag.Bool("tree", false, "print the affinity hierarchy only")
	runFor := flag.Duration("run", 200*time.Millisecond, "simulated run length")
	wl := flag.String("workload", "seq", "workload: seq | random | oltp | nfs | snapchurn | clonefleet")
	cleaners := flag.Int("cleaners", 4, "cleaner threads")
	members := flag.Int("members", 1, "cluster width (FlexGroup constituents)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
	traceEvents := flag.Int("trace-events", 0, "trace ring-buffer capacity in events (0 = default)")
	flag.Parse()

	cfg := wafl.DefaultConfig()
	cfg.Allocator.InitialCleaners = *cleaners
	cfg.Allocator.MaxCleaners = *cleaners
	if *members > 1 {
		cfg.Members = *members
	}
	// The clone fleet brings its own volume shape: dense parents plus the
	// clone slots the fan-out binds into.
	var fleet workload.CloneFleet
	if *wl == "clonefleet" {
		fleet.Configure(&cfg)
	}
	if *traceOut != "" {
		cfg.Trace = true
		cfg.TraceEvents = *traceEvents
	}
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wafltop:", err)
		os.Exit(1)
	}
	if *treeOnly {
		fmt.Print(sys.Hierarchy())
		return
	}

	// Scale the client spread with the cluster: the stock workloads stripe
	// round-robin over their Volumes setting, so widen it to the global
	// volume space (and grow the client count per member).
	n := sys.Members()
	switch *wl {
	case "random":
		w := workload.DefaultRandWrite()
		w.Clients *= n
		w.Volumes = sys.TotalVolumes()
		w.Attach(sys)
	case "oltp":
		w := workload.DefaultOLTP()
		w.Clients *= n
		w.Volumes = sys.TotalVolumes()
		w.Attach(sys)
	case "nfs":
		w := workload.DefaultNFSMix()
		w.Clients *= n
		w.Volumes = sys.TotalVolumes()
		w.Attach(sys)
	case "snapchurn":
		w := workload.DefaultSnapChurn()
		w.Clients *= n
		w.Volumes = sys.TotalVolumes()
		w.Attach(sys)
	case "clonefleet":
		// Brings its own clients/volumes; prefilled and cloned in Attach.
		fleet.Attach(sys)
	default:
		w := workload.DefaultSeqWrite()
		w.Clients *= n
		w.Volumes = sys.TotalVolumes()
		w.Attach(sys)
	}
	res, parts := sys.MeasureMembers(50*wafl.Millisecond, wafl.Duration(runFor.Nanoseconds()))

	fmt.Println("=== results ===")
	fmt.Println(res)
	// The kernel's work since format (warm-up included), per client op since then.
	st := sys.Stats()
	ev, sw, ew, ops := sys.Events(), st.Sched.Switches, st.Waffinity.EmptyWakes, float64(max(st.Client.Ops, 1))
	fmt.Printf("events %d (%.1f/op)  thread switches %d (%.1f/op)  empty worker wakes %d (%.1f/op)\n",
		ev, float64(ev)/ops, sw, float64(sw)/ops, ew, float64(ew)/ops)
	dr := res.Stats.Drives
	fmt.Printf("media bytes per block written %.0f over the window (%d blocks, data and parity)\n",
		float64(dr.BytesWritten)/float64(max(dr.BlocksWritten, 1)), dr.BlocksWritten)
	fmt.Printf("explicit parity rows %d at the window's end (stripes with a write in flight or torn by a crash)\n", res.Stats.RAID.Rows)
	img := res.Stats.Images
	fmt.Printf("image arrays built %.3f/op over the window (%d built; back from the media %d)\n",
		float64(img.New)/float64(max(res.Ops, 1)), img.New, img.Returned)
	fmt.Println()
	if sys.Members() > 1 {
		fmt.Println("=== cluster members (measurement window + point-in-time state) ===")
		fmt.Printf("%-6s  %10s  %6s  %10s  %12s  %8s  %9s  %6s  %9s\n",
			"member", "ops/s", "cps", "nvlog-fill", "free-blocks", "cleaners", "reserved", "shed", "bc-hit%")
		for i, p := range parts {
			st := p.Stats
			bcHit := 0.0
			if lookups := st.BCache.Hits + st.BCache.Misses; lookups > 0 {
				bcHit = 100 * float64(st.BCache.Hits) / float64(lookups)
			}
			fmt.Printf("%-6d  %10.0f  %6d  %9.0f%%  %12d  %8d  %9d  %6d  %8.1f%%\n",
				i, p.OpsPerSec, p.CPs, 100*float64(st.NVLogBytes)/float64(cfg.NVRAMHalfBytes), st.VolFree, st.Cleaners,
				st.Reserved, st.Admission.Shed, bcHit)
		}
		fmt.Println()
	}
	fmt.Println("=== counters over the window (non-zero; one layer per line), then its latency histograms ===")
	fmt.Println(res.Stats)
	fmt.Println()
	fmt.Println("=== volumes (snapshots & free-space split) ===")
	cum := sys.Stats().CP // since format, not over the window
	fmt.Printf("%-4s  %6s  %10s  %10s  %10s\n", "vol", "snaps", "active", "snap-held", "free")
	for v := 0; v < sys.TotalVolumes(); v++ {
		fs := sys.FreeSpaceBreakdown(v)
		fmt.Printf("%-4d  %6d  %10d  %10d  %10d\n",
			v, len(sys.SnapshotIDs(v)), fs.Active, fs.SnapOnly, fs.Free)
	}
	fmt.Printf("snapshot ops: %d created, %d deleted, %d blocks reclaimed\n",
		cum.SnapsCreated, cum.SnapsDeleted, cum.SnapReclaimed)
	fmt.Println()
	if clones := sys.CloneVolumes(); cum.CloneBinds > 0 || cum.Restores > 0 || len(clones) > 0 {
		fmt.Println("=== clones & restores ===")
		fmt.Printf("%-6s  %-6s  %-6s  %10s  %12s\n", "clone", "parent", "snap", "base-held", "split-pend")
		splitting := 0
		for _, cv := range clones {
			fs := sys.FreeSpaceBreakdown(cv)
			pv, ps, _ := sys.CloneParent(cv)
			fmt.Printf("%-6d  %-6d  %-6d  %10d  %12d\n", cv, pv, ps, fs.CloneHeld, fs.SplitPending)
			if fs.SplitPending > 0 {
				splitting++
			}
		}
		fmt.Printf("clone ops: %d bound (%d live, %d splitting), %d splits done (%d blocks copied)\n",
			cum.CloneBinds, len(clones), splitting, cum.SplitsDone, cum.SplitCopied)
		fmt.Printf("restore ops: %d restores, %d blocks freed, %d metadata blocks rewritten\n",
			cum.Restores, cum.RestoreFreed, cum.RestoreBlocks)
		fmt.Println()
	}
	fmt.Println("=== affinity hierarchy (Fig 1), messages executed ===")
	fmt.Print(sys.Hierarchy())

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wafltop:", err)
			os.Exit(1)
		}
		if err := sys.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "wafltop:", err)
			os.Exit(1)
		}
		f.Close()
		tr := sys.Tracer()
		fmt.Printf("\nwrote %d trace events to %s (%d dropped by ring wrap); open at ui.perfetto.dev\n",
			tr.Len(), *traceOut, tr.Dropped())
	}
}
