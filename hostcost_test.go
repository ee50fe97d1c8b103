package wafl_test

import (
	"runtime"
	"testing"

	"wafl"
	"wafl/harness"
	"wafl/workload"
)

// TestSeqWriteHostAllocBudget guards the host cost of the data path where
// `go test ./...` sees it: on the default configuration (64-byte payloads)
// an 8-block sequential write may allocate at most 2.5 KiB of host heap.
// TotalAlloc is a count, not a timing — it repeats to 0.01 % (bench/README)
// — and the figure sits near 2.12 KiB/op (20.2 mallocs/op) while parity is
// kept as rows of data images (DESIGN §4; 2.40 when each stripe's parity was
// XORed into an array), the allocation window's state and the op's own state
// are recycled (DESIGN §9; 3.3 KiB and 38 mallocs when messages, call
// completions, op bodies and free commits were garbage and every payload was
// copied into its buffer), block images stay trimmed, sparse indirects go to
// the media trimmed and the buffer index stays map-free; materialising the
// zero tail of the eight L0 images alone adds 32 KiB.
func TestSeqWriteHostAllocBudget(t *testing.T) {
	const budgetKiB = 2.5
	sys, err := wafl.NewSystem(wafl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	workload.DefaultSeqWrite().Attach(sys)
	sys.Run(50 * wafl.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := sys.Measure(0, 50*wafl.Millisecond)
	runtime.ReadMemStats(&after)
	if res.Ops == 0 {
		t.Fatal("no ops completed in the window")
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Ops)
	t.Logf("%.2f KiB/op, %.1f mallocs/op over %d ops",
		perOp, float64(after.Mallocs-before.Mallocs)/float64(res.Ops), res.Ops)
	if perOp > budgetKiB {
		t.Fatalf("seqwrite allocates %.2f KiB of host heap per op, budget %v KiB/op", perOp, budgetKiB)
	}
}

// TestNFSMixHostAllocBudget guards the host cost of the op path on the
// benchmark's nfsmix: at most 0.6 KiB and 5 mallocs of host heap per client
// op. The figures sit near 0.475 KiB and 2.5 mallocs/op while parity is kept
// as rows of data images (DESIGN §4; 0.609 KiB when each stripe's parity was
// XORed into an array) and a client op allocates only its payloads and
// first-touch buffers (the message, its call completion, the op's body, the
// NVRAM reservation, the bcache entry and the free commits all come back from
// free lists; DESIGN §9), 0.98 KiB and 11.3 when each was garbage and the
// buffer copied its payload.
func TestNFSMixHostAllocBudget(t *testing.T) {
	const budgetKiB, budgetMallocs = 0.6, 5
	cfg := wafl.DefaultConfig()
	cfg.BCacheBlocks = 8192
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	workload.DefaultNFSMix().Attach(sys)
	sys.Run(50 * wafl.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := sys.Measure(0, 50*wafl.Millisecond)
	runtime.ReadMemStats(&after)
	if res.Ops == 0 {
		t.Fatal("no ops completed in the window")
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Ops)
	mallocs := float64(after.Mallocs-before.Mallocs) / float64(res.Ops)
	t.Logf("%.3f KiB/op, %.2f mallocs/op over %d ops", perOp, mallocs, res.Ops)
	if perOp > budgetKiB || mallocs > budgetMallocs {
		t.Fatalf("nfsmix allocates %.2f KiB and %.1f mallocs of host heap per op, budget %.1f KiB and %d", perOp, mallocs, budgetKiB, budgetMallocs)
	}
}

// TestClientOpAllocations pins what a warm client op allocates on the host:
// a Write exactly its payload, a Read that hits the buffer cache and a
// Getattr nothing. Everything else an op uses is recycled (DESIGN §9).
func TestClientOpAllocations(t *testing.T) {
	cfg := wafl.DefaultConfig()
	cfg.BCacheBlocks = 64
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	ino := sys.CreateFileDirect(0, 1024)
	got := map[string]float64{}
	sys.ClientThread("probe", func(c *wafl.ClientCtx) {
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"write", func() { c.Write(0, ino, 7, 1) }},
			{"read", func() { c.Read(0, ino, 7, 1) }},
			{"getattr", func() { c.Getattr(0, ino) }},
		} {
			op.fn()
			got[op.name] = testing.AllocsPerRun(50, op.fn)
		}
	})
	sys.Run(50 * wafl.Millisecond)
	for name, want := range map[string]float64{"write": 1, "read": 0, "getattr": 0} {
		if got[name] != want {
			t.Errorf("a warm one-block %s allocates %v objects, want %v", name, got[name], want)
		}
	}
}

// TestNFSMixMediaBytesBudget guards the host memory the simulated media
// holds: on the benchmark's nfsmix at most 300 image bytes per block
// written, data and parity. Drives.BytesWritten is a count, exact for the
// seed, in which a parity row counts one per image it references: 247 while
// parity is kept as rows and a sparse indirect or metafile block (one that
// trims to half a block or less) goes to storage trimmed; 386 when each
// stripe's parity was an array as long as its longest image, 419 with sparse
// indirects alone trimmed, 1,605 when every indirect image was also a full
// 4 KiB array.
func TestNFSMixMediaBytesBudget(t *testing.T) {
	const budget = 300
	cfg := wafl.DefaultConfig()
	cfg.BCacheBlocks = 8192
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	workload.DefaultNFSMix().Attach(sys)
	sys.Run(50 * wafl.Millisecond)
	res := sys.Measure(0, 50*wafl.Millisecond)
	dr := res.Stats.Drives
	if dr.BlocksWritten == 0 {
		t.Fatal("no blocks written in the window")
	}
	perBlock := float64(dr.BytesWritten) / float64(dr.BlocksWritten)
	t.Logf("%.1f media bytes per block written over %d blocks", perBlock, dr.BlocksWritten)
	if perBlock > budget {
		t.Fatalf("nfsmix writes %.0f media bytes per block, budget %d", perBlock, budget)
	}
}

// overloadBurst is the benchmark's overload_burst system (NVLog admission on)
// with its open-loop load attached, run through the base phase and the 4x
// burst (200 ms): the window that follows is the recover phase, whose CPs
// rewrite metafile blocks and stripes the earlier CPs wrote.
func overloadBurst(t *testing.T) *wafl.System {
	cfg := harness.OverloadConfig(wafl.DefaultConfig())
	cfg.Admission.Enabled = true
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	w := workload.DefaultOpenLoop()
	w.Attach(sys)
	sys.Run(200 * wafl.Millisecond)
	return sys
}

// TestOverloadHostAllocBudget guards the host cost of the CP's write path on
// the benchmark's costliest workload: over overload_burst's 100 ms recover
// phase at most 5.2 KiB of host heap per client op. The figure sits near
// 4.67 KiB/op while parity is kept as rows of data images (DESIGN §4) and a
// sparse metafile L0 goes to the media trimmed (its buffer then updated in
// place, not cloned; DESIGN §14): 6.16 when each stripe's parity was XORed
// into an array (displaced full-block ones reused), 6.79 without the reuse,
// 7.79 when every sparse metafile L0 was a fresh array too.
func TestOverloadHostAllocBudget(t *testing.T) {
	const budgetKiB = 5.2
	sys := overloadBurst(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := sys.Measure(0, 100*wafl.Millisecond)
	runtime.ReadMemStats(&after)
	if res.Ops == 0 {
		t.Fatal("no ops completed in the window")
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Ops)
	t.Logf("%.2f KiB/op, %.1f mallocs/op over %d ops",
		perOp, float64(after.Mallocs-before.Mallocs)/float64(res.Ops), res.Ops)
	if perOp > budgetKiB {
		t.Fatalf("overload_burst allocates %.2f KiB of host heap per op, budget %v KiB/op", perOp, budgetKiB)
	}
}

// TestOverloadMediaBytesBudget guards the host memory the simulated media
// holds on overload_burst, over the same window: at most 800 image bytes
// per block written, data and parity. A count, exact for the seed, in which a
// parity row counts one per image it references: 694 while parity is kept as
// rows and a sparse metafile L0 (one that trims to half a block or less)
// goes to storage trimmed; 1,110 when each stripe's parity was an array,
// 1,293 when each sparse metafile L0 was also a full 4 KiB array.
func TestOverloadMediaBytesBudget(t *testing.T) {
	const budget = 800
	dr := overloadBurst(t).Measure(0, 100*wafl.Millisecond).Stats.Drives
	if dr.BlocksWritten == 0 {
		t.Fatal("no blocks written in the window")
	}
	perBlock := float64(dr.BytesWritten) / float64(dr.BlocksWritten)
	t.Logf("%.1f media bytes per block written over %d blocks", perBlock, dr.BlocksWritten)
	if perBlock > budget {
		t.Fatalf("overload_burst writes %.0f media bytes per block, budget %d", perBlock, budget)
	}
}

// TestOverloadLiveHeapBudget guards the host memory a system keeps, where
// the budgets above guard what it allocates: at the end of overload_burst's
// recover phase the live heap the system holds (HeapAlloc after a
// collection, less what it was before the system was built: systems earlier
// tests left running stay live) is under 45 MiB. It sits near 33.7 MiB while
// the media drop a freed block's image once its free commits (DESIGN §14); it
// was 56.2 MiB when every image landed stayed until its DBN was written again.
func TestOverloadLiveHeapBudget(t *testing.T) {
	const budgetMiB = 45
	heap := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	base := heap()
	sys := overloadBurst(t)
	sys.Measure(0, 100*wafl.Millisecond)
	live := heap() - base
	runtime.KeepAlive(sys)
	t.Logf("%.1f MiB live heap", live)
	if live > budgetMiB {
		t.Fatalf("overload_burst keeps %.1f MiB of live host heap, budget %d MiB", live, budgetMiB)
	}
}

// TestNFSMixSwitchBudget guards the other host cost, thread switches, the same
// way: on the benchmark's nfsmix (a cache far smaller than the working set, so
// read misses sleep inside their Stripe message) at most 10 coroutine switches
// per client op. Switches is a count, exact for the seed: 7.0 while a wake-up
// of an idle Waffinity worker that finds every queued message excluded is
// refused by the dispatcher (sim.WaitQueue.WaitUntil), 24.0 when the worker is
// switched into to find that out for itself.
func TestNFSMixSwitchBudget(t *testing.T) {
	const budget = 10
	cfg := wafl.DefaultConfig()
	cfg.BCacheBlocks = 8192
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	workload.DefaultNFSMix().Attach(sys)
	sys.Run(50 * wafl.Millisecond)
	before := sys.Switches()
	res := sys.Measure(0, 50*wafl.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no ops completed in the window")
	}
	perOp := float64(sys.Switches()-before) / float64(res.Ops)
	t.Logf("%.2f switches/op, %.2f empty worker wakes/op over %d ops",
		perOp, float64(res.Stats.Waffinity.EmptyWakes)/float64(res.Ops), res.Ops)
	if perOp > budget {
		t.Fatalf("nfsmix switches threads %.1f times per op, budget %d/op", perOp, budget)
	}
}
