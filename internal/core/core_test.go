package core

import (
	"math/bits"
	"testing"

	"wafl/internal/aggregate"
	"wafl/internal/block"
	"wafl/internal/fifo"
	"wafl/internal/fs"
	"wafl/internal/sim"
	"wafl/internal/storage"
	"wafl/internal/waffinity"
)

// env is a miniature system for allocator unit tests: scheduler, hierarchy,
// aggregate with two volumes, infrastructure, and pool.
type env struct {
	s    *sim.Scheduler
	w    *waffinity.Scheduler
	h    *waffinity.Hierarchy
	a    *aggregate.Aggregate
	in   *Infra
	pool *Pool
	opts Options
}

func newEnv(t testing.TB, mutate func(*Options)) *env {
	t.Helper()
	s := sim.New(8, 1)
	w := waffinity.New(s, 8, 0)
	h := waffinity.NewHierarchy(w, waffinity.HierarchyConfig{
		Aggregates: 1, VolumesPerAgg: 2, StripesPerVol: 4, RangesPerVBN: 4,
	})
	a, err := aggregate.New(s, aggregate.Config{
		Geometry: aggregate.Geometry{NumGroups: 2, DataDrives: 3, Depth: 8192, AAStripes: 1024},
		Profile:  storage.SSD,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.AddVolume(1 << 15)
	a.AddVolume(1 << 15)
	opts := DefaultOptions()
	opts.MaxCleaners = 3
	opts.InitialCleaners = 3
	if mutate != nil {
		mutate(&opts)
	}
	in := NewInfra(w, h, a, opts, DefaultCosts())
	pool := NewPool(in, opts, DefaultCosts())
	return &env{s: s, w: w, h: h, a: a, in: in, pool: pool, opts: opts}
}

// drain quiesces the infrastructure the way a CP does: messages first, then
// the storage I/O they issued.
func (e *env) drain(th *sim.Thread) {
	e.in.DrainOps(th)
	e.in.DrainIO(th)
}

// runThread runs fn on a fresh simulated thread and drives the simulation
// until it completes (or the deadline hits).
func (e *env) runThread(t testing.TB, fn func(th *sim.Thread)) {
	t.Helper()
	done := false
	e.s.Go("test", sim.CatCP, func(th *sim.Thread) {
		fn(th)
		done = true
	})
	e.s.RunFor(60 * sim.Second)
	if !done {
		t.Fatal("test thread did not complete (deadlock?)")
	}
}

func TestGetBucketReturnsValidChunk(t *testing.T) {
	e := newEnv(t, nil)
	e.in.StartCP(nil)
	e.runThread(t, func(th *sim.Thread) {
		b := e.in.GetBucket(th)
		if b.Remaining() == 0 {
			t.Error("empty bucket from GET")
		}
		geo := e.a.Geometry()
		for _, vbn := range b.vbns {
			g, d, dbn := geo.Locate(vbn)
			if g != b.group || d != b.drive {
				t.Errorf("vbn %v not on bucket drive (%d,%d)", vbn, b.group, b.drive)
			}
			if dbn < b.window || dbn >= b.window+block.DBN(e.opts.ChunkBlocks) {
				t.Errorf("vbn %v outside window %d", vbn, b.window)
			}
			if !e.in.phys.reserved.test(uint64(vbn)) {
				t.Errorf("vbn %v not reserved after fill", vbn)
			}
			if e.a.Activemap.IsSet(uint64(vbn)) {
				t.Errorf("vbn %v already allocated", vbn)
			}
		}
		e.in.PutBucket(th, b)
	})
}

func TestEqualProgressWindowInsertion(t *testing.T) {
	// With equal progress, buckets arrive in whole windows: after the
	// initial fill, the cache must contain full drive sets per group.
	e := newEnv(t, nil)
	e.in.StartCP(nil)
	e.s.RunFor(sim.Second)
	type winKey struct {
		group  int
		window block.DBN
	}
	perWindow := make(map[winKey]int)
	for _, b := range e.in.cache.TakeAll() {
		perWindow[winKey{b.group, b.window}]++
	}
	for win, n := range perWindow {
		if n != e.a.Geometry().DataDrives {
			t.Fatalf("window %v has %d buckets, want %d (equal progress)", win, n, e.a.Geometry().DataDrives)
		}
	}
	if len(perWindow) != windowsAhead*e.a.Groups() {
		t.Fatalf("windows in cache = %d, want %d", len(perWindow), windowsAhead*e.a.Groups())
	}
}

func TestPutBucketCommitsUsedOnly(t *testing.T) {
	e := newEnv(t, nil)
	e.in.StartCP(nil)
	var used, unused []block.VBN
	e.runThread(t, func(th *sim.Thread) {
		b := e.in.GetBucket(th)
		// Consume half the bucket.
		n := b.Remaining() / 2
		for i := 0; i < n; i++ {
			vbn := b.vbns[b.next]
			b.next++
			g, d, dbn := e.a.Geometry().Locate(vbn)
			_ = g
			e.in.addToTetris(b.tetris, d, dbn, block.New())
		}
		used = append([]block.VBN(nil), b.Used()...)
		unused = append([]block.VBN(nil), b.vbns[b.next:]...)
		e.in.PutBucket(th, b)
		th.Sleep(100 * sim.Millisecond) // let the commit message run
	})
	for _, vbn := range used {
		if !e.a.Activemap.IsSet(uint64(vbn)) {
			t.Fatalf("used vbn %v not committed", vbn)
		}
	}
	for _, vbn := range unused {
		if e.a.Activemap.IsSet(uint64(vbn)) {
			t.Fatalf("unused vbn %v wrongly committed", vbn)
		}
		if e.in.phys.reserved.test(uint64(vbn)) {
			t.Fatalf("unused vbn %v still reserved after commit", vbn)
		}
	}
}

func TestTetrisSentWhenAllBucketsReturned(t *testing.T) {
	e := newEnv(t, nil)
	e.in.StartCP(nil)
	e.runThread(t, func(th *sim.Thread) {
		// Take all buckets of the first window (same tetris) and use one
		// block from each.
		var buckets []*Bucket
		first := e.in.GetBucket(th)
		buckets = append(buckets, first)
		for i := 1; i < e.a.Geometry().DataDrives; i++ {
			buckets = append(buckets, e.in.GetBucket(th))
		}
		te := first.tetris
		for _, b := range buckets {
			if b.tetris != te {
				t.Fatal("FIFO cache did not return one whole window")
			}
			vbn := b.vbns[b.next]
			b.next++
			_, d, dbn := e.a.Geometry().Locate(vbn)
			data := block.New()
			data[0] = byte(d + 1)
			e.in.addToTetris(te, d, dbn, data)
		}
		before := e.in.Stats().TetrisesSent
		for i, b := range buckets {
			e.in.PutBucket(th, b)
			sent := e.in.Stats().TetrisesSent
			if i < len(buckets)-1 && sent != before {
				t.Fatal("tetris sent before all buckets returned")
			}
		}
		if e.in.Stats().TetrisesSent != before+1 {
			t.Fatal("tetris not sent after last bucket returned")
		}
		th.Sleep(200 * sim.Millisecond) // let the I/O land
	})
	// The data must be on the media with consistent parity.
	g := e.a.Group(0)
	found := 0
	for dbn := block.DBN(0); dbn < g.Depth(); dbn++ {
		for d := 0; d < g.DataDrives(); d++ {
			if b := g.Drive(d).Peek(dbn); b != nil && b[0] == byte(d+1) {
				found++
				if !g.VerifyStripe(dbn) {
					t.Fatalf("parity mismatch at stripe %d", dbn)
				}
			}
		}
	}
	if found != e.a.Geometry().DataDrives {
		t.Fatalf("found %d written blocks on media, want %d", found, e.a.Geometry().DataDrives)
	}
}

func TestVBucketCommitWritesContainer(t *testing.T) {
	e := newEnv(t, nil)
	vol := e.a.Volume(0)
	e.in.StartCP([]*aggregate.Volume{vol})
	e.runThread(t, func(th *sim.Thread) {
		vb := e.in.GetVBucket(th, vol)
		if vb.Remaining() == 0 {
			t.Fatal("empty vbucket")
		}
		vv1 := vb.use(777)
		vv2 := vb.use(888)
		e.in.PutVBucket(th, vb)
		th.Sleep(100 * sim.Millisecond)
		if !vol.Activemap.IsSet(uint64(vv1)) || !vol.Activemap.IsSet(uint64(vv2)) {
			t.Fatal("vvbn bits not committed")
		}
		if vol.Container(vv1) != 777 || vol.Container(vv2) != 888 {
			t.Fatal("container entries not committed")
		}
	})
}

func TestCommitFreesScatteredVsSequential(t *testing.T) {
	// Frees grouped by metafile block: sequential frees produce one
	// message; scattered frees produce one per activemap block touched —
	// the §V-A2 effect.
	e := newEnv(t, nil)
	e.in.StartCP(nil)
	// Allocate some bits so we can free them.
	seq := make([]uint64, 32)
	for i := range seq {
		seq[i] = uint64(1000 + i)
		e.a.Activemap.Set(seq[i])
	}
	// The small test aggregate (49152 blocks) spans two activemap blocks:
	// frees split across both must produce two messages.
	scattered := []uint64{3000, 3100, 40000, 40100}
	for _, bn := range scattered {
		e.a.Activemap.Set(bn)
	}
	before := e.in.Stats().StageCommitMsgs
	e.in.free(e.in.phys, seq)
	e.s.RunFor(100 * sim.Millisecond)
	seqMsgs := e.in.Stats().StageCommitMsgs - before
	if seqMsgs != 1 {
		t.Fatalf("sequential frees produced %d messages, want 1", seqMsgs)
	}
	before = e.in.Stats().StageCommitMsgs
	e.in.free(e.in.phys, scattered)
	e.s.RunFor(100 * sim.Millisecond)
	scatMsgs := e.in.Stats().StageCommitMsgs - before
	if scatMsgs != 2 {
		t.Fatalf("scattered frees produced %d messages, want 2", scatMsgs)
	}
	for _, bn := range seq {
		if e.a.Activemap.IsSet(bn) {
			t.Fatal("free not applied")
		}
		if !e.in.phys.pendingFree.test(bn) {
			t.Fatal("freed block not in pendingFree")
		}
	}
}

// TestWarmFreeAllocatesNothing: a free of one bucket's worth of block numbers
// groups them into a recycled commit record and sends its bound body, so once
// the previous commit has come back neither the grouping nor the message
// allocates.
func TestWarmFreeAllocatesNothing(t *testing.T) {
	e := newEnv(t, nil)
	e.in.StartCP(nil)
	bns := make([]uint64, stageSize)
	for i := range bns {
		bns[i] = uint64(2000 + i)
	}
	free := func() {
		for _, bn := range bns {
			e.a.Activemap.Set(bn)
		}
		e.in.free(e.in.phys, bns)
		e.s.RunFor(sim.Millisecond)
	}
	free()
	if got := testing.AllocsPerRun(100, free); got != 0 {
		t.Errorf("a warm free of %d block numbers allocates %v objects, want 0", len(bns), got)
	}
	if n := idle(e.in.stats.CommitPool); n != 1 || e.a.Activemap.IsSet(bns[0]) {
		t.Fatalf("%d commit records spare, first bit set %v; want 1 and the frees applied", n, e.a.Activemap.IsSet(bns[0]))
	}
}

// TestPendingFreeBlocksReuseUntilEndCP is the same-CP-reuse fence, once per
// kind of space: a bit freed inside a CP is not offered again until EndCP.
func TestPendingFreeBlocksReuseUntilEndCP(t *testing.T) {
	for _, tc := range []struct {
		name string
		pick func(*Infra) *space
	}{
		{"aggregate", func(in *Infra) *space { return in.phys }},
		{"volume0", func(in *Infra) *space { return in.vols[0].space }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, nil)
			sp := tc.pick(e.in)
			e.in.StartCP(nil)
			bn := uint64(5000)
			sp.amap.Set(bn)
			e.in.free(sp, []uint64{bn})
			e.s.RunFor(50 * sim.Millisecond)
			if sp.amap.IsSet(bn) {
				t.Fatal("free not applied")
			}
			got, _ := findFree(sp, []uint64(nil), bn, bn+1, 1)
			if len(got) != 0 {
				t.Fatal("same-CP-freed block offered for reuse")
			}
			e.runThread(t, func(th *sim.Thread) { e.drain(th) })
			e.in.EndCP()
			got, _ = findFree(sp, []uint64(nil), bn, bn+1, 1)
			if len(got) != 1 {
				t.Fatal("freed block not reusable after EndCP")
			}
		})
	}
}

func TestFindMetaVBNSkipsReservedAndPending(t *testing.T) {
	e := newEnv(t, nil)
	e.in.StartCP(nil)
	e.s.RunFor(100 * sim.Millisecond) // fills reserve their windows
	e.runThread(t, func(th *sim.Thread) {
		seen := make(map[block.VBN]bool)
		for i := 0; i < 50; i++ {
			vbn := e.in.FindMetaVBN(th)
			if seen[vbn] {
				t.Fatal("FindMetaVBN returned a block twice without Set")
			}
			seen[vbn] = true
			if e.in.phys.reserved.test(uint64(vbn)) || e.in.phys.pendingFree.test(uint64(vbn)) {
				t.Fatal("FindMetaVBN returned a reserved/pending block")
			}
			e.a.Activemap.Set(uint64(vbn))
		}
	})
}

// buildDirtyFile creates a user file with n dirty L0 blocks and freezes it.
func buildDirtyFile(v *aggregate.Volume, n int) *fs.File {
	f := v.CreateFile(1 << 14)
	for i := 0; i < n; i++ {
		f.WriteBlock(block.FBN(i), []byte{byte(i)})
	}
	v.MarkDirty(f)
	files := v.FreezeAll()
	for _, ff := range files {
		if ff == f {
			return f
		}
	}
	return f
}

func TestPoolCleansFileCompletely(t *testing.T) {
	e := newEnv(t, nil)
	vol := e.a.Volume(0)
	f := buildDirtyFile(vol, 100)
	e.in.StartCP([]*aggregate.Volume{vol})
	jobs := e.pool.BuildJobs(vol, []*fs.File{f}, true)
	e.runThread(t, func(th *sim.Thread) {
		e.pool.RunPhase(th, jobs)
		e.drain(th)
	})
	if f.FrozenCount() != 0 {
		t.Fatalf("%d frozen buffers left", f.FrozenCount())
	}
	if f.RootVBN == block.InvalidVBN {
		t.Fatal("root not assigned")
	}
	// Every L0 must have both addresses and a committed container entry.
	for i := 0; i < 100; i++ {
		b := f.Buffer(0, block.FBN(i))
		if b.VBN() == block.InvalidVBN || b.VVBN() == block.InvalidVVBN {
			t.Fatalf("block %d missing address", i)
		}
		if !e.a.Activemap.IsSet(uint64(b.VBN())) {
			t.Fatalf("block %d vbn not committed", i)
		}
		if !vol.Activemap.IsSet(uint64(b.VVBN())) {
			t.Fatalf("block %d vvbn not committed", i)
		}
		if vol.Container(b.VVBN()) != b.VBN() {
			t.Fatalf("block %d container mismatch", i)
		}
	}
	if got := e.pool.Stats().BuffersCleaned; got < 100 {
		t.Fatalf("cleaned %d buffers, want >= 100 (plus indirects)", got)
	}
}

func TestOverwriteStagesFrees(t *testing.T) {
	e := newEnv(t, nil)
	vol := e.a.Volume(0)
	f := buildDirtyFile(vol, 50)
	e.in.StartCP([]*aggregate.Volume{vol})
	e.runThread(t, func(th *sim.Thread) {
		e.pool.RunPhase(th, e.pool.BuildJobs(vol, []*fs.File{f}, true))
		e.drain(th)
	})
	e.in.EndCP()
	oldVBN := f.Buffer(0, 0).VBN()
	usedBefore := e.a.Activemap.Used()

	// Overwrite all 50 blocks and clean again: the old locations free.
	for i := 0; i < 50; i++ {
		f.WriteBlock(block.FBN(i), []byte{0xFF})
	}
	vol.MarkDirty(f)
	vol.FreezeAll()
	e.in.StartCP([]*aggregate.Volume{vol})
	e.runThread(t, func(th *sim.Thread) {
		e.pool.RunPhase(th, e.pool.BuildJobs(vol, []*fs.File{f}, true))
		e.drain(th)
	})
	e.in.EndCP()
	if e.a.Activemap.IsSet(uint64(oldVBN)) {
		t.Fatal("overwritten block's old location not freed")
	}
	usedAfter := e.a.Activemap.Used()
	// Steady state: allocations balanced by frees (within indirect noise).
	if usedAfter > usedBefore+5 {
		t.Fatalf("space leak: used %d -> %d", usedBefore, usedAfter)
	}
	if e.in.Stats().FreesCommitted == 0 {
		t.Fatal("no frees committed")
	}
}

func TestLooseAccountingConverges(t *testing.T) {
	e := newEnv(t, nil)
	vol := e.a.Volume(0)
	f := buildDirtyFile(vol, 80)
	_ = f
	freeBefore := e.in.AggrFree()
	e.in.StartCP([]*aggregate.Volume{vol})
	e.runThread(t, func(th *sim.Thread) {
		e.pool.RunPhase(th, e.pool.BuildJobs(vol, []*fs.File{f}, true))
		e.drain(th)
	})
	e.in.EndCP()
	// After all tokens flush, the loose counter equals ground truth minus
	// the initial-format difference.
	gotDelta := freeBefore - e.in.AggrFree()
	groundDelta := int64(e.a.Geometry().TotalBlocks()) - int64(e.a.TotalFree()) -
		(int64(e.a.Geometry().TotalBlocks()) - freeBefore)
	if gotDelta != groundDelta {
		t.Fatalf("loose counter delta %d != ground truth delta %d", gotDelta, groundDelta)
	}
}

// TestBatchedCleaningTakesMultipleSmallJobs: eight one-buffer files are each
// far under batchBufferLimit, so one cleaner takes all batchSize of them as
// one batch.
func TestBatchedCleaningTakesMultipleSmallJobs(t *testing.T) {
	e := newEnv(t, func(o *Options) {
		o.BatchedCleaning = true
		o.MaxCleaners = 1
		o.InitialCleaners = 1
	})
	vol := e.a.Volume(0)
	var files []*fs.File
	for i := 0; i < batchSize; i++ {
		f := vol.CreateFile(64)
		f.WriteBlock(0, []byte{byte(i)})
		vol.MarkDirty(f)
		files = append(files, f)
	}
	vol.FreezeAll()
	e.in.StartCP([]*aggregate.Volume{vol})
	jobs := e.pool.BuildJobs(vol, files, true)
	e.runThread(t, func(th *sim.Thread) {
		e.pool.RunPhase(th, jobs)
		e.drain(th)
	})
	if st := e.pool.Stats(); st.JobsRun != batchSize || st.BatchesRun != 1 {
		t.Fatalf("%d jobs in %d batches, want %d in 1", st.JobsRun, st.BatchesRun, batchSize)
	}
}

// TestSplitLargeFile: a file with more than splitThreshold frozen L0s becomes
// splitJobs range jobs, and the last of them to finish queues the finalize
// job that cleans the indirect levels — RunPhase returns only once that has
// run too, so nothing stays frozen.
func TestSplitLargeFile(t *testing.T) {
	e := newEnv(t, nil)
	vol := e.a.Volume(0)
	f := buildDirtyFile(vol, splitThreshold+100)
	e.in.StartCP([]*aggregate.Volume{vol})
	jobs := e.pool.BuildJobs(vol, []*fs.File{f}, true)
	if len(jobs) != splitJobs {
		t.Fatalf("split produced %d jobs, want %d", len(jobs), splitJobs)
	}
	e.runThread(t, func(th *sim.Thread) {
		e.pool.RunPhase(th, jobs)
		e.drain(th)
	})
	if f.FrozenCount() != 0 {
		t.Fatalf("split cleaning left %d frozen buffers", f.FrozenCount())
	}
	if st := e.pool.Stats(); st.FilesSplit != 1 || st.JobsRun != splitJobs+1 {
		t.Fatalf("%d files split, %d jobs run; want 1 and %d (the range jobs plus the finalize job)",
			st.FilesSplit, st.JobsRun, splitJobs+1)
	}
}

func TestTunerActivatesAndParks(t *testing.T) {
	e := newEnv(t, func(o *Options) {
		o.MaxCleaners = 4
		o.InitialCleaners = 1
	})
	tu := StartTuner(e.pool, TunerConfig{Interval: 10 * sim.Millisecond, ActivateAt: 0.9, ParkAt: 0.5})
	// Saturate the single active cleaner with a busy-loop job stream.
	vol := e.a.Volume(0)
	e.in.StartCP([]*aggregate.Volume{vol})
	stop := false
	e.s.Go("feeder", sim.CatCP, func(th *sim.Thread) {
		for k := 0; k < 30 && !stop; k++ {
			f := buildDirtyFile(vol, 200)
			e.pool.RunPhase(th, e.pool.BuildJobs(vol, []*fs.File{f}, true))
		}
		stop = true
	})
	e.s.RunFor(2 * sim.Second)
	if e.pool.Active() <= 1 && e.pool.Stats().Activations == 0 {
		t.Fatalf("tuner never activated threads under load (active=%d)", e.pool.Active())
	}
	// Now idle: the tuner must park back down to one.
	e.s.RunFor(2 * sim.Second)
	if e.pool.Active() != 1 {
		t.Fatalf("tuner did not park idle threads (active=%d)", e.pool.Active())
	}
	tu.Stop()
}

// TestSelectAAMostFree pins what each AA policy picks and that an AA already
// used this CP is not picked again.
func TestSelectAAMostFree(t *testing.T) {
	e := newEnv(t, nil)
	geo := e.a.Geometry()
	// Consume blocks in AA 0..6 of group 0, leaving AA 7 fullest.
	for aa := 0; aa < 7; aa++ {
		start, _ := geo.AARange(aa)
		for i := block.DBN(0); i < block.DBN(10*(aa+1)); i++ {
			dbn := start + i + 1 // skip reserved stripe 0
			e.a.Activemap.Set(uint64(geo.VBNOf(0, 0, dbn)))
		}
	}
	if got := e.in.selectAA(0); got != 7 {
		t.Fatalf("most free = %d, want 7", got)
	}
	e.in.usedAAs[0][7] = true
	if got := e.in.selectAA(0); got == 7 {
		t.Fatal("used AA picked again")
	}
	e.in.opts.AASelection = AAFirstFit
	if got := e.in.selectAA(0); got != 0 {
		t.Fatalf("first fit = %d, want 0", got)
	}
	e.in.usedAAs[0][0] = true
	if got := e.in.selectAA(0); got != 1 {
		t.Fatalf("first fit with 0 used = %d, want 1", got)
	}
}

func TestAAPolicies(t *testing.T) {
	for _, pol := range []AAPolicy{AAMostFree, AAFirstFit, AARoundRobin} {
		e := newEnv(t, func(o *Options) { o.AASelection = pol })
		e.in.StartCP(nil)
		e.s.RunFor(200 * sim.Millisecond)
		if e.in.cache.Len() == 0 {
			t.Fatalf("policy %v produced no buckets", pol)
		}
	}
}

func TestChunkSizeOne(t *testing.T) {
	// Bucket size one is legal (§IV-C): allocation degenerates to one VBN
	// per GET.
	e := newEnv(t, func(o *Options) { o.ChunkBlocks = 1 })
	vol := e.a.Volume(0)
	f := buildDirtyFile(vol, 20)
	e.in.StartCP([]*aggregate.Volume{vol})
	e.runThread(t, func(th *sim.Thread) {
		e.pool.RunPhase(th, e.pool.BuildJobs(vol, []*fs.File{f}, true))
		e.drain(th)
	})
	if f.FrozenCount() != 0 {
		t.Fatal("chunk-1 cleaning incomplete")
	}
}

// idle returns the records a pool holds for its next Gets.
func idle(st fifo.PoolStats) uint64 { return st.New + st.Returned - st.Taken }

// reservedBits counts the block numbers sp currently fences off.
func reservedBits(sp *space) (n int) {
	for _, w := range sp.reserved.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// noReservations fails the test if any space still fences a block off.
func noReservations(t *testing.T, in *Infra) {
	t.Helper()
	for _, sp := range in.spaces {
		if n := reservedBits(sp); n != 0 {
			t.Fatalf("space %d: %d reservations leaked", sp.idx, n)
		}
	}
}

// TestDrainLeavesNoReservations checks the drain itself — before EndCP's
// blanket reset could hide a leak — in every space, after a cleaning phase
// and after a drain that had to drop unused buckets of both kinds.
func TestDrainLeavesNoReservations(t *testing.T) {
	t.Run("cleaned", func(t *testing.T) {
		e := newEnv(t, nil)
		vol := e.a.Volume(0)
		f := buildDirtyFile(vol, 60)
		e.in.StartCP([]*aggregate.Volume{vol})
		e.runThread(t, func(th *sim.Thread) {
			e.pool.RunPhase(th, e.pool.BuildJobs(vol, []*fs.File{f}, true))
			e.drain(th)
		})
		noReservations(t, e.in)
	})
	t.Run("dropped", func(t *testing.T) {
		e := newEnv(t, nil)
		e.in.StartCP(e.a.Volumes())
		e.s.RunFor(100 * sim.Millisecond) // fills land and reserve
		for _, sp := range e.in.spaces {
			if reservedBits(sp) == 0 {
				t.Fatalf("space %d: no bucket filled before the drain", sp.idx)
			}
		}
		e.runThread(t, func(th *sim.Thread) { e.drain(th) })
		noReservations(t, e.in)
		// A dropped bucket ends its lifetime like a committed one.
		geo := e.a.Geometry()
		if got, want := idle(e.in.stats.BucketPool), windowsAhead*geo.NumGroups*geo.DataDrives; got != uint64(want) {
			t.Fatalf("%d buckets recycled by the drain, want %d", got, want)
		}
		if got, want := idle(e.in.stats.VBucketPool), volBucketsReady*len(e.in.vols); got != uint64(want) {
			t.Fatalf("%d vbuckets recycled by the drain, want %d", got, want)
		}
		if st := e.in.stats; st.BucketPool.Outstanding() != 0 || st.VBucketPool.Outstanding() != 0 {
			t.Fatalf("buckets %+v, vbuckets %+v outstanding after the drain", st.BucketPool, st.VBucketPool)
		}
	})
}

// TestFindFreeWarmDstAllocatesNothing pins what recycling a bucket buys: a
// fill that scans into a slice with the capacity of a previous fill
// allocates nothing.
func TestFindFreeWarmDstAllocatesNothing(t *testing.T) {
	e := newEnv(t, nil)
	chunk := e.opts.ChunkBlocks
	lo, hi := uint64(1), uint64(1+chunk)
	dst, _ := findFree(e.in.phys, []block.VBN(nil), lo, hi, chunk)
	if len(dst) != chunk {
		t.Fatalf("found %d free blocks in a fresh window, want %d", len(dst), chunk)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dst, _ = findFree(e.in.phys, dst, lo, hi, chunk)
	}); allocs != 0 {
		t.Fatalf("findFree into a warm dst allocates %.1f times, want 0", allocs)
	}
}
