package wafl_test

import (
	"runtime"
	"testing"

	"wafl"
	"wafl/harness"
	"wafl/internal/allocs"
	"wafl/workload"
)

// TestSeqWriteHostAllocBudget guards the host cost of the data path where
// `go test ./...` sees it: on the default configuration (64-byte payloads)
// an 8-block sequential write may allocate at most 0.17 KiB of host heap.
// TotalAlloc is a count, not a timing — it repeats to 0.01 % (bench/README)
// — and the figure sits near 0.15 KiB/op (0.3 mallocs/op) while a
// container-map entry is a 32-bit PVBN, so a container block's array is half
// a block (DESIGN §2 row 7; 0.19 KiB with 64-bit entries), while a block
// pointer is two 32-bit numbers, so a full indirect's array is half a block
// (DESIGN §14; 0.24 KiB with 64-bit pointers), while a block's
// payload is a name its record, slot and media hold (DESIGN §14; 0.74
// KiB and 8.3 mallocs with an array per payload), while a level-1
// node's slot array comes from the image pool and goes back when its last
// L0 word leaves (DESIGN §15) and the allocator's window records, the
// cleaning jobs and the CP's scratch are recycled (DESIGN §9; 0.93 KiB and
// 9.8 mallocs when each was built fresh), while a user block is a word in
// its level-1 node (DESIGN §15; 1.68 KiB and 17.8 mallocs when every block
// ever written kept a buffer), while CP-owned
// images come from the aggregate's image pool and go back to it when the
// media drops them (DESIGN §14; 2.12 when every CP-side copy was a fresh
// array), a stripe's parity is the XOR of its data images and a stripe
// write's explicit rows and record are recycled (DESIGN §4; 1.89 when each
// stripe write cloned a row of data images, 2.40 when each stripe's parity
// was XORed into an array), the allocation window's state
// and the op's own state are recycled (DESIGN §9; 3.3 KiB and 38 mallocs
// when messages, call completions, op bodies and free commits were garbage
// and every payload was copied into its buffer), block images stay trimmed,
// sparse indirects go to the media trimmed and the buffer index stays
// map-free; materialising the zero tail of the eight L0 images alone adds
// 32 KiB.
func TestSeqWriteHostAllocBudget(t *testing.T) {
	const budgetKiB = 0.17
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
// benchmark's nfsmix: at most 0.20 KiB and 1.3 mallocs of host heap per
// client op. The figures sit near 0.177 KiB and 0.29 mallocs/op while a
// block pointer is two 32-bit numbers (DESIGN §14; 0.282 KiB with 64-bit
// pointers, whose indirect arrays made two thirds of the bytes), while the
// cleaning jobs, the allocator's window records, the volumes' dirty maps
// and the level-1 slot arrays are recycled (DESIGN §9, §15; 0.380 KiB and
// 1.7 when each was built fresh), a payload
// comes from the image pool (DESIGN §14; 0.402 KiB when each was a fresh
// array) and a stripe's parity is the XOR of its data images (DESIGN §4;
// measured against 0.434 KiB and 2.2 mallocs then, 0.455 KiB when each
// stripe write cloned a row of data images, 0.609 KiB when each stripe's
// parity was XORed into an array), and a client op
// allocates only the payloads the pool lacks and its
// first-touch buffers (the message, its call completion, the op's body, the
// NVRAM reservation, the bcache entry and the free commits all come back from
// free lists; DESIGN §9), 0.98 KiB and 11.3 when each was garbage and the
// buffer copied its payload.
func TestNFSMixHostAllocBudget(t *testing.T) {
	const budgetKiB, budgetMallocs = 0.20, 1.3
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
		t.Fatalf("nfsmix allocates %.3f KiB and %.2f mallocs of host heap per op, budget %v KiB and %v", perOp, mallocs, budgetKiB, budgetMallocs)
	}
}

// TestWindowMallocsAreImages pins what a warm window allocates on the host
// besides the image arrays the image pool had to build (Stats.Images.New):
// the recycled state's floor,
// over a 100 ms window after the benchmark's 150 ms warm-up. On seqwrite,
// whose window writes every block for the first time, its new images per op
// are the indirects the media keeps (0.07; 8.1 when each payload was an
// array); everything else — the allocator's window records, message
// bodies, cleaning jobs, slot arrays, CP scratch — comes back from free
// lists, and at most 0.5 mallocs per op are left: 0.12 now, 0.18 when each
// CP built its per-volume records and fan-out units, 1.74 when windows,
// jobs, message bodies and the level-1 slot arrays were built fresh too
// (DESIGN §9, §15). On nfsmix, at most 0.36: 0.07 now, 0.76 then.
func TestWindowMallocsAreImages(t *testing.T) {
	for _, row := range []struct {
		name   string
		budget float64
		cfg    func(*wafl.Config)
		w      harness.Attacher
	}{
		{"seqwrite", 0.5, func(*wafl.Config) {}, workload.DefaultSeqWrite()},
		{"nfsmix", 0.36, func(c *wafl.Config) { c.BCacheBlocks = 8192 }, workload.DefaultNFSMix()},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := wafl.DefaultConfig()
			row.cfg(&cfg)
			sys, err := wafl.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Shutdown()
			row.w.Attach(sys)
			sys.Run(150 * wafl.Millisecond)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := sys.Measure(0, 100*wafl.Millisecond)
			runtime.ReadMemStats(&after)
			if res.Ops == 0 {
				t.Fatal("no ops completed in the window")
			}
			img := res.Stats.Images
			built := img.New
			other := (float64(after.Mallocs-before.Mallocs) - float64(built)) / float64(res.Ops)
			t.Logf("%.3f other mallocs/op, %.2f images built/op over %d ops", other, float64(built)/float64(res.Ops), res.Ops)
			if other > row.budget {
				t.Fatalf("%s makes %.3f mallocs per op besides the arrays the image pool built, budget %v", row.name, other, row.budget)
			}
		})
	}
}

// TestClientOpAllocations pins what a warm client op allocates on the host:
// nothing, counted exactly over 50 ops (allocs.Count). A Write's payload is
// a name, a value its NVLog record and its slot hold (DESIGN §14; one
// object a write when every payload was a fresh array). The write probe
// overwrites one block, 100 times with its warm-up, in one generation. A
// Read that hits the buffer cache and a Getattr use nothing but recycled
// state (DESIGN §9).
func TestClientOpAllocations(t *testing.T) {
	cfg := wafl.DefaultConfig()
	cfg.BCacheBlocks = 64
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	ino := sys.CreateFileDirect(0, 1024)
	// Two generations of 64 blocks, each committed: the second's CP frees
	// the first, and the CP after it hands the first's payloads back. The
	// second writes every block twice.
	for gen := range 2 {
		sys.ClientThread("warm", func(c *wafl.ClientCtx) {
			for range 2*gen + 1 {
				c.Write(0, ino, 0, 64)
			}
		})
		sys.Run(10 * wafl.Millisecond)
		if err := sys.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	sys.ClientThread("probe", func(c *wafl.ClientCtx) {
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"write", func() { c.Write(0, ino, 7, 1) }},
			{"read", func() { c.Read(0, ino, 7, 1) }},
			{"getattr", func() { c.Getattr(0, ino) }},
		} {
			// Warm up as long as the count runs: a free list's queue
			// slides its array forward, and grows it, until it first
			// compacts.
			for range 50 {
				op.fn()
			}
			got[op.name] = allocs.Count(50, op.fn)
		}
	})
	sys.Run(50 * wafl.Millisecond)
	for _, name := range []string{"write", "read", "getattr"} {
		if got[name] != 0 {
			t.Errorf("50 warm one-block %ss allocate %d objects, want 0", name, got[name])
		}
	}
}

// TestNFSMixMediaBytesBudget guards the host memory the simulated media
// holds: on the benchmark's nfsmix at most 180 image bytes per block
// written, data and parity. Drives.BytesWritten is a count, exact for the
// seed, of data images alone: a parity write's blocks count as written, but
// it carries no image. 160 while an indirect's pointers are 8 bytes each and
// it goes to storage trimmed; 246 with 16-byte pointers, while a sparse
// indirect or metafile block (one that trims to half a block or less) went
// to storage trimmed; 247 when a
// parity write counted one per image its row referenced, 386 when each
// stripe's parity was an array as long as its longest image, 419 with sparse
// indirects alone trimmed, 1,605 when every indirect image was also a full
// 4 KiB array.
func TestNFSMixMediaBytesBudget(t *testing.T) {
	const budget = 180
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
// phase at most 0.16 KiB of host heap per client op. The figure sits near
// 0.14 KiB/op (0.2 mallocs) while a block pointer is two 32-bit numbers
// (DESIGN §14; 0.18 KiB with 64-bit pointers). Earlier figures: 0.58
// KiB/op (3.9 mallocs) while the CP's jobs and scratch, its per-volume
// records and fan-out units, the allocator's window records and the
// level-1 slot arrays are recycled (DESIGN §9, §15; 0.66 KiB and 4.5
// mallocs when each CP built its cuts, frozen file lists and fan-out units
// and closures; 0.96 KiB and 11.7 mallocs when everything was built fresh,
// 1.17 KiB when each stripe write also cloned a row of data images,
// DESIGN §4) and the CP's copies of indirect and metafile blocks (a
// sealed buffer's clone, a sparse block's trimmed copy for the media) come
// from the aggregate's image pool and go back to it when the media drops
// them (DESIGN §14): 4.67 when each was a fresh array for the garbage
// collector. With fresh arrays, 6.16 when each stripe's parity was also
// XORed into an array (displaced full-block ones reused), 6.79 without the
// reuse, 7.79 when every sparse metafile L0 was a fresh full block too.
func TestOverloadHostAllocBudget(t *testing.T) {
	const budgetKiB = 0.16
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
// holds on overload_burst, over the same window: at most 590 image bytes
// per block written, data and parity. A count, exact for the seed, of data
// images alone, as above: 553 while a container-map entry is 4 bytes, so a
// dense container block is 2 KiB on the media (600 with 8-byte entries),
// while an indirect's pointers are 8 bytes each (692 with 16-byte ones) and
// a sparse metafile L0 (one that trims to half its file's L0 length or
// less) goes to storage trimmed; 694 when a parity write
// counted one per image its row referenced, 1,110 when each stripe's parity
// was an array, 1,293 when each sparse metafile L0 was also a full 4 KiB
// array.
func TestOverloadMediaBytesBudget(t *testing.T) {
	const budget = 590
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

// liveHeap returns the live host heap in MiB: HeapAlloc after a collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// TestOverloadLiveHeapBudget guards the host memory a system keeps, where
// the budgets above guard what it allocates: at the end of overload_burst's
// recover phase the live heap the system holds (HeapAlloc after a
// collection, less what it was before the system was built: systems earlier
// tests left running stay live) is under 10.5 MiB. It sits near 9.6 MiB while
// a block pointer is two 32-bit numbers (DESIGN §14; 11.0 MiB with 64-bit
// pointers), while a user block's media image is a name (DESIGN §14; 14.7 MiB with a
// payload array per block), while a clean user block keeps no buffer (DESIGN §15; 18.0 when every block
// written or read kept one, 18.6 when the parity drive also kept every
// stripe's row, DESIGN §4), while
// a sparse indirect keeps an array only as long as its pointers need and
// shares it with the media sealed (DESIGN §14; 25.9 MiB when every indirect
// kept a full block and the media got a trimmed copy), a drive keeps each DBN
// in a pointer and a 16-bit length and the image pool holds its returned
// arrays (24.9 MiB before the pool); it was 33.7 MiB when every DBN held a
// 24-byte slice header, and 56.2 MiB before the media dropped a freed
// block's image once its free commits.
func TestOverloadLiveHeapBudget(t *testing.T) {
	const budgetMiB = 10.5
	base := liveHeap()
	sys := overloadBurst(t)
	sys.Measure(0, 100*wafl.Millisecond)
	live := liveHeap() - base
	runtime.KeepAlive(sys)
	t.Logf("%.1f MiB live heap", live)
	if live > budgetMiB {
		t.Fatalf("overload_burst keeps %.1f MiB of live host heap, budget %v MiB", live, budgetMiB)
	}
}

// TestNFSMixLiveHeapBudget guards the same on the benchmark's nfsmix, whose
// 1,600 small files hold one sparse L1 each: after a 150 ms warm-up and a
// 250 ms window the live heap the system holds is under 13.5 MiB. It sits
// near 12.1 MiB while a block pointer is two 32-bit numbers (DESIGN §14;
// 15.3 MiB with 64-bit pointers), while a user block's media image is a name (DESIGN §14; 20.3
// with a payload array per block), while a clean user block keeps no buffer (DESIGN §15; 24.7 when
// every block written kept one, 26.2 when the parity drive also kept every
// stripe's row, DESIGN §4) and a sparse indirect keeps an array only as long as its
// pointers need and shares it with the media sealed (DESIGN §14); 31.6 MiB
// when every indirect kept a full block and the media got a trimmed copy.
func TestNFSMixLiveHeapBudget(t *testing.T) {
	const budgetMiB = 13.5
	base := liveHeap()
	cfg := wafl.DefaultConfig()
	cfg.BCacheBlocks = 8192
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	workload.DefaultNFSMix().Attach(sys)
	sys.Run(150 * wafl.Millisecond)
	sys.Measure(0, 250*wafl.Millisecond)
	live := liveHeap() - base
	runtime.KeepAlive(sys)
	t.Logf("%.1f MiB live heap", live)
	if live > budgetMiB {
		t.Fatalf("nfsmix keeps %.1f MiB of live host heap, budget %v MiB", live, budgetMiB)
	}
}

// liveAfterWindow builds a system with cfg, attaches w, runs the bench's
// 150 ms warm-up and 250 ms window and returns the live heap it holds then.
func liveAfterWindow(t *testing.T, cfg wafl.Config, w harness.Attacher) float64 {
	t.Helper()
	base := liveHeap()
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	w.Attach(sys)
	sys.Run(150 * wafl.Millisecond)
	sys.Measure(0, 250*wafl.Millisecond)
	live := liveHeap() - base
	runtime.KeepAlive(sys)
	return live
}

// TestSeqWriteLiveHeapBudget guards the live heap of the benchmark's
// seqwrite: after a 150 ms warm-up and a 250 ms window the system holds
// under 12.5 MiB. It sits near 11.8 MiB while a container block is a 2 KiB
// array of 32-bit PVBNs (DESIGN §2 row 7; 13.0 MiB with 64-bit entries),
// while a user block's media image is a name (DESIGN §14; 35.0 MiB with a
// payload array per block), while a
// level-1 node holds a slot array only while a slot holds a word (37.1 MiB
// when every node kept its 2 KiB array after its buffers left), and a user
// L0's word lives only while its block is dirty or in a CP, so a clean
// block's content is its media image (DESIGN §15); 63.6 MiB when every
// block ever written kept its 96-byte buffer.
func TestSeqWriteLiveHeapBudget(t *testing.T) {
	const budgetMiB = 12.5
	live := liveAfterWindow(t, wafl.DefaultConfig(), workload.DefaultSeqWrite())
	t.Logf("%.1f MiB live heap", live)
	if live > budgetMiB {
		t.Fatalf("seqwrite keeps %.1f MiB of live host heap, budget %v MiB", live, budgetMiB)
	}
}

// TestAgedRandLiveHeapBudget is its twin on the benchmark's agedrand, whose
// set-up dirties a 393,216-block prefill in one CP: under 19.5 MiB after
// the window. It sits near 18.7 MiB while a container block is a 2 KiB
// array of 32-bit PVBNs (DESIGN §2 row 7; 20.6 MiB with 64-bit entries),
// while a user block's media image is a name (DESIGN §14; 55.5 MiB with a
// payload array per block), while that burst
// builds no buffer and no dirty list (DESIGN §15; 59.0 MiB when a spent
// dirty list kept the burst's array, 62.2 when every level-1 node also
// kept its slot array after its buffers left); 98.8 MiB when every block
// kept its buffer. Over the window the system also allocates at
// most 0.05 KiB of host heap per op, and its image pool builds at most 0.15
// arrays per op (Stats.Images.New): 0.024 KiB and 0.005 arrays while a
// client's payload is a name (DESIGN §14), 0.026 KiB and 0.038 arrays when
// each was an array the pool took back from its last holder, 0.073 KiB and
// 0.75 arrays when some of those were garbage, 0.091 KiB when
// the allocator's window records and message bodies were also built fresh
// (DESIGN §9), 0.167 when every payload was a fresh array, 0.29 when every
// snapshot delete also allocated its volume's reclamation arrays anew.
// The less the run allocates once the prefill's burst is garbage, the less
// its peak RSS depends on whether the collector reclaimed the burst first.
func TestAgedRandLiveHeapBudget(t *testing.T) {
	const budgetMiB, budgetKiB, budgetBuilt = 19.5, 0.05, 0.15
	base := liveHeap()
	cfg := wafl.DefaultConfig()
	workload.DefaultAgedVol().Configure(&cfg)
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	workload.DefaultAgedVol().Attach(sys)
	sys.Run(150 * wafl.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := sys.Measure(0, 250*wafl.Millisecond)
	runtime.ReadMemStats(&after)
	live := liveHeap() - base
	runtime.KeepAlive(sys)
	if res.Ops == 0 {
		t.Fatal("no ops completed in the window")
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Ops)
	built := float64(res.Stats.Images.New) / float64(res.Ops)
	t.Logf("%.1f MiB live heap, %.3f KiB/op, %.3f mallocs/op, %.3f image arrays built/op over %d ops",
		live, perOp, float64(after.Mallocs-before.Mallocs)/float64(res.Ops), built, res.Ops)
	if live > budgetMiB {
		t.Fatalf("agedrand keeps %.1f MiB of live host heap, budget %v MiB", live, budgetMiB)
	}
	if perOp > budgetKiB {
		t.Fatalf("agedrand allocates %.3f KiB of host heap per op, budget %v KiB/op", perOp, budgetKiB)
	}
	if built > budgetBuilt {
		t.Fatalf("agedrand's image pool builds %.3f arrays per op, budget %v", built, budgetBuilt)
	}
}

// TestAgedPrefillLiveHeapBudget pins the moment that sets agedrand's peak
// RSS: its set-up's prefill, 393,216 blocks dirty in one CP, before the
// flush that cleans them. Built as AgedVol.Attach builds it, the system then
// holds under 15 MiB of live heap. It sits near 12.0 MiB while each block's
// payload is a name its record and its L1's slot hold (DESIGN §14, §15);
// 45.7 MiB when each block also had an 80-byte buffer and a dirty-list
// entry, 65.7 MiB when each also had a 64-byte payload array.
func TestAgedPrefillLiveHeapBudget(t *testing.T) {
	const budgetMiB = 15
	base := liveHeap()
	w := workload.DefaultAgedVol()
	cfg := wafl.DefaultConfig()
	w.Configure(&cfg)
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	for v := 0; v < w.Volumes; v++ {
		for range w.FilesPerV {
			sys.Prewrite(v, sys.CreateFileDirect(v, w.FileBlocks), w.FileBlocks, true)
		}
	}
	live := liveHeap() - base
	runtime.KeepAlive(sys)
	t.Logf("%.1f MiB live heap", live)
	if live > budgetMiB {
		t.Fatalf("agedrand's dirty prefill keeps %.1f MiB of live host heap, budget %d MiB", live, budgetMiB)
	}
}

// TestNFSMixSwitchBudget guards the other host cost, thread switches, the same
// way: on the benchmark's nfsmix (a cache far smaller than the working set, so
// read misses sleep inside their Stripe message) at most 10 coroutine switches
// per client op. Stats.Sched.Switches is a count, exact for the seed: 7.0 while
// a wake-up of an idle Waffinity worker that finds every queued message
// excluded is refused by the dispatcher (sim.WaitQueue.WaitUntil), 24.0 when
// the worker is switched into to find that out for itself.
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
	res := sys.Measure(0, 50*wafl.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no ops completed in the window")
	}
	perOp := float64(res.Stats.Sched.Switches) / float64(res.Ops)
	t.Logf("%.2f switches/op, %.2f empty worker wakes/op over %d ops",
		perOp, float64(res.Stats.Waffinity.EmptyWakes)/float64(res.Ops), res.Ops)
	if perOp > budget {
		t.Fatalf("nfsmix switches threads %.1f times per op, budget %d/op", perOp, budget)
	}
}

// TestFirstFillAllocatesNoArrayPerBlock: a client that fills a file for
// the first time, eight blocks a write, lands every block through CPs
// without an array of its own: the NVLog record, the slot and the media
// hold each payload by name (DESIGN §14). Over three warm 20 ms windows of
// the running fill the system allocates under 0.15 objects per block it
// writes (0.143 now: CP and indirect-block work), where an L0 buffer per
// block that the free list's trim let go between CPs of different sizes
// made it 0.22, and an array per payload 1.22, one per block more, which
// the media kept.
func TestFirstFillAllocatesNoArrayPerBlock(t *testing.T) {
	const rounds = 3
	sys, err := wafl.NewSystem(wafl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	ino := sys.CreateFileDirect(0, 1<<20)
	last := wafl.FBN(0)
	sys.ClientThread("fill", func(c *wafl.ClientCtx) {
		for fbn := wafl.FBN(0); c.Alive() && fbn < 1<<20; fbn += 8 {
			c.Write(0, ino, fbn, 8)
			last = fbn + 7
		}
	})
	sys.Run(50 * wafl.Millisecond) // the pools' working sets
	var blocks [rounds + 1]uint64
	call := 0
	got := allocs.Count(rounds, func() {
		before := sys.Stats().Client.BlocksWritten
		sys.Run(20 * wafl.Millisecond)
		blocks[call] = sys.Stats().Client.BlocksWritten - before
		call++
	})
	written := blocks[1] + blocks[2] + blocks[3]
	perBlock := float64(got) / float64(written)
	t.Logf("%d objects over %d first-filled blocks: %.3f a block", got, written, perBlock)
	if written < 5_000 || perBlock >= 0.15 {
		t.Fatalf("a first fill of %d blocks allocates %.3f objects a block, want under 0.15", written, perBlock)
	}
	if err := sys.VerifyAgainst(0, ino, last); err != nil {
		t.Fatal(err)
	}
}
