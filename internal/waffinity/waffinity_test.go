package waffinity

import (
	"fmt"
	"testing"

	"wafl/internal/fifo"
	"wafl/internal/sim"
)

// testEnv builds a scheduler with the default hierarchy on n cores/workers.
func testEnv(cores int) (*sim.Scheduler, *Scheduler, *Hierarchy) {
	s := sim.New(cores, 1)
	w := New(s, cores, 0)
	h := NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 2, StripesPerVol: 4, RangesPerVBN: 4})
	return s, w, h
}

// exclusionTracker records concurrently-active affinities and verifies that
// no two active affinities are ever in an ancestor/descendant relation.
type exclusionTracker struct {
	t      *testing.T
	active map[*Affinity]int
}

func newTracker(t *testing.T) *exclusionTracker {
	return &exclusionTracker{t: t, active: make(map[*Affinity]int)}
}

func related(a, b *Affinity) bool {
	for x := a; x != nil; x = x.parent {
		if x == b {
			return true
		}
	}
	for x := b; x != nil; x = x.parent {
		if x == a {
			return true
		}
	}
	return false
}

func (tr *exclusionTracker) enter(a *Affinity) {
	for other := range tr.active {
		if related(a, other) {
			tr.t.Errorf("exclusion violated: %s running concurrently with %s", a.Name(), other.Name())
		}
	}
	tr.active[a]++
	if tr.active[a] > 1 {
		tr.t.Errorf("affinity %s running two messages at once", a.Name())
	}
}

func (tr *exclusionTracker) exit(a *Affinity) {
	tr.active[a]--
	if tr.active[a] == 0 {
		delete(tr.active, a)
	}
}

func TestSiblingsRunInParallel(t *testing.T) {
	s, w, h := testEnv(4)
	vol := h.Volumes[0]
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		aff := vol.Stripes[i]
		w.Send(aff, sim.CatClient, func(th *sim.Thread) {
			th.Consume(100 * sim.Microsecond)
		}, func() { ends = append(ends, s.Now()) })
	}
	s.Run(sim.Time(sim.Second))
	if len(ends) != 4 {
		t.Fatalf("completed %d messages", len(ends))
	}
	for _, e := range ends {
		if e != sim.Time(100*sim.Microsecond) {
			t.Fatalf("ends = %v; stripes should run fully parallel", ends)
		}
	}
}

func TestSameAffinitySerializes(t *testing.T) {
	s, w, h := testEnv(4)
	aff := h.Volumes[0].Stripes[0]
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		w.Send(aff, sim.CatClient, func(th *sim.Thread) {
			th.Consume(10 * sim.Microsecond)
		}, func() { ends = append(ends, s.Now()) })
	}
	s.Run(sim.Time(sim.Second))
	want := []sim.Time{sim.Time(10 * sim.Microsecond), sim.Time(20 * sim.Microsecond), sim.Time(30 * sim.Microsecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestParentExcludesChildren(t *testing.T) {
	s, w, h := testEnv(4)
	tr := newTracker(t)
	vol := h.Volumes[0]
	mk := func(aff *Affinity, d sim.Duration) {
		w.Send(aff, sim.CatClient, func(th *sim.Thread) {
			tr.enter(aff)
			th.Consume(d)
			tr.exit(aff)
		}, nil)
	}
	mk(vol.Logical, 50*sim.Microsecond)
	for i := 0; i < 4; i++ {
		mk(vol.Stripes[i], 20*sim.Microsecond)
	}
	mk(vol.Volume, 30*sim.Microsecond)
	s.Run(sim.Time(sim.Second))
	if got := w.Stats().Executed; got != 6 {
		t.Fatalf("executed %d messages, want 6", got)
	}
}

func TestCousinsRunInParallel(t *testing.T) {
	// Volume Logical work and Volume VBN work within the SAME volume can
	// run in parallel (paper §IV-B2, third mechanism); stripe work under
	// logical runs in parallel with range work under VBN.
	s, w, h := testEnv(4)
	vol := h.Volumes[0]
	var ends []sim.Time
	send := func(aff *Affinity) {
		w.Send(aff, sim.CatClient, func(th *sim.Thread) {
			th.Consume(100 * sim.Microsecond)
		}, func() { ends = append(ends, s.Now()) })
	}
	send(vol.Stripes[0])
	send(vol.Ranges[0])
	send(vol.Ranges[1])
	s.Run(sim.Time(sim.Second))
	for _, e := range ends {
		if e != sim.Time(100*sim.Microsecond) {
			t.Fatalf("ends = %v; stripe and VBN ranges should overlap fully", ends)
		}
	}
}

func TestSerialExcludesEverything(t *testing.T) {
	s, w, h := testEnv(8)
	tr := newTracker(t)
	inSerial := false
	vol := h.Volumes[0]
	for i := 0; i < 4; i++ {
		aff := vol.Stripes[i%len(vol.Stripes)]
		w.Send(aff, sim.CatClient, func(th *sim.Thread) {
			tr.enter(aff)
			if inSerial {
				t.Error("stripe message ran during serial message")
			}
			th.Consume(20 * sim.Microsecond)
			tr.exit(aff)
		}, nil)
	}
	w.Send(h.Serial, sim.CatOther, func(th *sim.Thread) {
		tr.enter(h.Serial)
		inSerial = true
		th.Consume(50 * sim.Microsecond)
		inSerial = false
		tr.exit(h.Serial)
	}, nil)
	for i := 0; i < 4; i++ {
		aff := h.Volumes[1].Stripes[i%4]
		w.Send(aff, sim.CatClient, func(th *sim.Thread) {
			tr.enter(aff)
			if inSerial {
				t.Error("stripe message ran during serial message")
			}
			th.Consume(20 * sim.Microsecond)
			tr.exit(aff)
		}, nil)
	}
	s.Run(sim.Time(sim.Second))
	if w.Stats().Executed != 9 {
		t.Fatalf("executed %d, want 9", w.Stats().Executed)
	}
}

func TestSerialMessageNotStarved(t *testing.T) {
	// A continuous stream of stripe messages must not starve a pending
	// Serial message.
	s, w, h := testEnv(4)
	vol := h.Volumes[0]
	var serialDone sim.Time
	stop := false
	var pump func(i int)
	pump = func(i int) {
		if stop || i > 2000 {
			return
		}
		w.Send(vol.Stripes[i%4], sim.CatClient, func(th *sim.Thread) {
			th.Consume(10 * sim.Microsecond)
		}, func() { pump(i + 1) })
	}
	for k := 0; k < 8; k++ {
		pump(k)
	}
	s.After(100*sim.Microsecond, func() {
		w.Send(h.Serial, sim.CatOther, func(th *sim.Thread) {
			th.Consume(10 * sim.Microsecond)
		}, func() {
			serialDone = s.Now()
			stop = true
		})
	})
	s.Run(sim.Time(sim.Second))
	if serialDone == 0 {
		t.Fatal("serial message starved")
	}
	if serialDone > sim.Time(2*sim.Millisecond) {
		t.Fatalf("serial message took until %v; anti-starvation too weak", serialDone)
	}
}

func TestCallBlocksUntilDone(t *testing.T) {
	s, w, h := testEnv(2)
	var callerResumed, msgRan sim.Time
	s.Go("caller", sim.CatOther, func(th *sim.Thread) {
		w.Call(th, h.Volumes[0].Stripes[0], sim.CatClient, func(worker *sim.Thread) {
			worker.Consume(40 * sim.Microsecond)
			msgRan = s.Now()
		})
		callerResumed = s.Now()
	})
	s.Run(sim.Time(sim.Second))
	if msgRan != sim.Time(40*sim.Microsecond) {
		t.Fatalf("message ran at %v", msgRan)
	}
	if callerResumed < msgRan {
		t.Fatalf("caller resumed at %v before message finished at %v", callerResumed, msgRan)
	}
}

// TestWarmMessagesAllocateNothing: once a message and a call record have
// come back to their free lists, a Send with its done and a Call round trip
// take them again and allocate nothing.
func TestWarmMessagesAllocateNothing(t *testing.T) {
	s, w, h := testEnv(2)
	stripe := h.Volumes[0].Stripes[0]
	nop := func(*sim.Thread) {}
	done := func() {}
	send := func() {
		w.Send(stripe, sim.CatClient, nop, done)
		s.Drain(s.Now())
	}
	send()
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Errorf("a warm Send with its done allocates %v objects, want 0", got)
	}
	call := -1.0
	s.Go("caller", sim.CatClient, func(th *sim.Thread) {
		roundTrip := func() { w.Call(th, stripe, sim.CatClient, nop) }
		roundTrip()
		call = testing.AllocsPerRun(100, roundTrip)
	})
	s.Run(s.Now() + sim.Time(sim.Second))
	if call != 0 {
		t.Errorf("a warm Call round trip allocates %v objects, want 0", call)
	}
}

// TestCrashNeverRecyclesInFlightMessages: a record whose owner a crash killed
// is dropped, not reused. A caller killed while its message sleeps keeps its
// call record, so the message's late completion cannot mark the next caller's
// Call complete before that caller's own message has run; a worker killed
// mid-message keeps the message.
func TestCrashNeverRecyclesInFlightMessages(t *testing.T) {
	s, w, h := testEnv(2)
	stripes := h.Volumes[0].Stripes
	victim := s.ThreadMark()
	s.Go("victim", sim.CatClient, func(th *sim.Thread) {
		w.Call(th, stripes[0], sim.CatClient, func(wt *sim.Thread) { wt.Sleep(100 * sim.Microsecond) })
	})
	s.Run(sim.Time(10 * sim.Microsecond))
	s.KillRange(victim, victim+1)
	if n := idle(w.Stats().CallPool); n != 0 {
		t.Fatalf("%d call records spare after the caller was killed mid-Call, want 0", n)
	}
	s.Run(sim.Time(150 * sim.Microsecond)) // the orphaned message completes
	ran, early := false, false
	s.Go("next", sim.CatClient, func(th *sim.Thread) {
		w.Call(th, stripes[1], sim.CatClient, func(wt *sim.Thread) {
			wt.Sleep(200 * sim.Microsecond)
			ran = true
		})
		early = !ran
	})
	s.Run(sim.Time(sim.Second))
	if !ran || early {
		t.Fatalf("next caller's message ran %v, Call returned before it %v", ran, early)
	}
	if n := idle(w.Stats().CallPool); n != 1 {
		t.Fatalf("%d call records spare, want the next caller's 1", n)
	}

	// Workers are the scheduler's first threads.
	spare := idle(w.Stats().MsgPool)
	w.Send(stripes[2], sim.CatClient, func(wt *sim.Thread) { wt.Sleep(sim.Millisecond) }, nil)
	s.Run(s.Now() + sim.Time(10*sim.Microsecond))
	s.KillRange(0, 2)
	if n := idle(w.Stats().MsgPool); n != spare-1 {
		t.Fatalf("%d messages spare after a worker was killed mid-message, want %d", n, spare-1)
	}
	// The counts show both records outstanding: the killed caller's and the
	// killed worker's.
	if st := w.Stats(); st.CallPool.Outstanding() != 1 || st.MsgPool.Outstanding() != 1 {
		t.Fatalf("call pool %+v, message pool %+v: want one record outstanding in each", st.CallPool, st.MsgPool)
	}
}

// idle returns the records a pool holds for its next Gets.
func idle(st fifo.PoolStats) uint64 { return st.New + st.Returned - st.Taken }

func TestExclusionPropertyRandomized(t *testing.T) {
	// Fire a few hundred messages at random affinities and verify, via the
	// tracker, that the exclusion invariant holds throughout.
	s := sim.New(8, 99)
	w := New(s, 8, sim.Microsecond)
	for ai := 0; ai < 2; ai++ { // two aggregates' trees under one Serial
		NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 2, StripesPerVol: 4, RangesPerVBN: 4, FirstAggr: ai})
	}
	tr := newTracker(t)
	var all []*Affinity
	w.Walk(func(a *Affinity) { all = append(all, a) })
	rng := s.Rand()
	n := 400
	for i := 0; i < n; i++ {
		aff := all[rng.Intn(len(all))]
		delay := sim.Duration(rng.Intn(3000)) * sim.Microsecond
		dur := sim.Duration(rng.Intn(30)+1) * sim.Microsecond
		s.After(delay, func() {
			w.Send(aff, sim.CatOther, func(th *sim.Thread) {
				tr.enter(aff)
				th.Consume(dur)
				tr.exit(aff)
			}, nil)
		})
	}
	s.Run(sim.Time(sim.Second))
	if got := w.Stats().Executed; got != uint64(n) {
		t.Fatalf("executed %d, want %d", got, n)
	}
}

func TestClassicalHierarchy(t *testing.T) {
	s := sim.New(4, 1)
	w := New(s, 4, 0)
	// Classical Waffinity (§III-B) from the same primitives: Serial, where
	// all metadata work goes, and a flat set of Stripe affinities under it.
	var stripes []*Affinity
	for i := 0; i < 8; i++ {
		stripes = append(stripes, w.AddChild(w.Root(), KindStripe, fmt.Sprintf("stripe%d", i)))
	}
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		w.Send(stripes[i], sim.CatClient, func(th *sim.Thread) {
			th.Consume(50 * sim.Microsecond)
		}, func() { ends = append(ends, s.Now()) })
	}
	s.Run(sim.Time(sim.Second))
	for _, e := range ends {
		if e != sim.Time(50*sim.Microsecond) {
			t.Fatalf("classical stripes should parallelize: %v", ends)
		}
	}
}

func TestHierarchyString(t *testing.T) {
	_, _, h := testEnv(1)
	out := h.String()
	for _, want := range []string{"Serial", "aggr0 [Aggregate]", "aggr0.vbn [AggrVBN]", "aggr0.vol1.stripe3 [Stripe]"} {
		if !contains(out, want) {
			t.Fatalf("tree rendering missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDispatchCostAccounted(t *testing.T) {
	s := sim.New(2, 1)
	w := New(s, 2, 5*sim.Microsecond)
	hier := NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 1, StripesPerVol: 2, RangesPerVBN: 1})
	for i := 0; i < 10; i++ {
		w.Send(hier.Volumes[0].Stripes[i%2], sim.CatClient, func(th *sim.Thread) {
			th.Consume(sim.Microsecond)
		}, nil)
	}
	s.Run(sim.Time(sim.Second))
	if got := s.CPU().Busy[sim.CatWaffinity]; got != 50*sim.Microsecond {
		t.Fatalf("waffinity overhead = %v, want 50us", got)
	}
}

func TestQueueWaitAccounting(t *testing.T) {
	s, w, h := testEnv(1)
	aff := h.Volumes[0].Stripes[0]
	for i := 0; i < 3; i++ {
		w.Send(aff, sim.CatClient, func(th *sim.Thread) { th.Consume(10 * sim.Microsecond) }, nil)
	}
	s.Run(sim.Time(sim.Second))
	// Waits: 0 + 10us + 20us = 30us.
	if qw := w.Stats().QueueWait; qw.Count != 3 || sim.Duration(qw.Sum) != 30*sim.Microsecond {
		t.Fatalf("queue wait = %d messages, %v; want 3, 30us", qw.Count, sim.Duration(qw.Sum))
	}
}

func TestManyMessagesThroughput(t *testing.T) {
	// Smoke test: thousands of messages across the whole tree complete.
	s := sim.New(16, 3)
	w := New(s, 16, 0)
	NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 4, StripesPerVol: 16, RangesPerVBN: 8})
	var affs []*Affinity
	w.Walk(func(a *Affinity) {
		if a.Kind() == KindStripe || a.Kind() == KindRange {
			affs = append(affs, a)
		}
	})
	total := 5000
	for i := 0; i < total; i++ {
		w.Send(affs[i%len(affs)], sim.CatClient, func(th *sim.Thread) {
			th.Consume(2 * sim.Microsecond)
		}, nil)
	}
	s.Run(sim.Time(sim.Second))
	if got := int(w.Stats().Executed); got != total {
		t.Fatalf("executed %d/%d", got, total)
	}
}

func ExampleHierarchy_String() {
	s := sim.New(1, 1)
	w := New(s, 1, 0)
	h := NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 1, StripesPerVol: 1, RangesPerVBN: 1})
	fmt.Print(h.String())
	// Output:
	// Serial [Serial] executed=0
	//   aggr0 [Aggregate] executed=0
	//     aggr0.vbn [AggrVBN] executed=0
	//       aggr0.vbn.range0 [Range] executed=0
	//     aggr0.vol0 [Volume] executed=0
	//       aggr0.vol0.logical [VolLogical] executed=0
	//         aggr0.vol0.stripe0 [Stripe] executed=0
	//       aggr0.vol0.vbn [VolVBN] executed=0
	//         aggr0.vol0.vbn.range0 [Range] executed=0
}

func TestFIFOWithinAffinity(t *testing.T) {
	// Messages to one affinity execute in send order even under a full
	// worker pool.
	s := sim.New(4, 1)
	w := New(s, 4, 0)
	h := NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 1, StripesPerVol: 2, RangesPerVBN: 1})
	aff := h.Volumes[0].Stripes[0]
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		w.Send(aff, sim.CatClient, func(th *sim.Thread) {
			th.Consume(sim.Duration(8-i) * sim.Microsecond) // varying cost
			order = append(order, i)
		}, nil)
	}
	s.Run(sim.Time(sim.Second))
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestConcurrentCallers(t *testing.T) {
	// Many client threads Call into disjoint affinities concurrently.
	s := sim.New(8, 1)
	w := New(s, 8, 0)
	h := NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 2, StripesPerVol: 4, RangesPerVBN: 2})
	done := 0
	for i := 0; i < 16; i++ {
		i := i
		s.Go(fmt.Sprintf("caller-%d", i), sim.CatClient, func(th *sim.Thread) {
			for k := 0; k < 10; k++ {
				vol := h.Volumes[i%2]
				w.Call(th, vol.Stripes[(i+k)%4], sim.CatClient, func(wt *sim.Thread) {
					wt.Consume(3 * sim.Microsecond)
				})
			}
			done++
		})
	}
	s.Run(sim.Time(sim.Second))
	if done != 16 {
		t.Fatalf("only %d callers finished", done)
	}
	if w.Stats().Executed != 160 {
		t.Fatalf("executed %d messages", w.Stats().Executed)
	}
}

func TestRangeAffinityParallelismUnderVBN(t *testing.T) {
	// Ranges under the same VolVBN parent run in parallel with each other
	// but serialize against their parent.
	s := sim.New(8, 1)
	w := New(s, 8, 0)
	h := NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 1, StripesPerVol: 1, RangesPerVBN: 4})
	vol := h.Volumes[0]
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		w.Send(vol.Ranges[i], sim.CatInfra, func(th *sim.Thread) {
			th.Consume(50 * sim.Microsecond)
		}, func() { ends = append(ends, s.Now()) })
	}
	parentDone := sim.Time(-1)
	w.Send(vol.VolVBN, sim.CatInfra, func(th *sim.Thread) {
		th.Consume(10 * sim.Microsecond)
	}, func() { parentDone = s.Now() })
	s.Run(sim.Time(sim.Second))
	// All four ranges must have run fully in parallel with each other
	// (identical completion times), and the parent strictly before or
	// strictly after the whole batch — never overlapped.
	for _, e := range ends {
		if e != ends[0] {
			t.Fatalf("ranges did not run in parallel: %v", ends)
		}
	}
	ranFirst := parentDone == sim.Time(10*sim.Microsecond) && ends[0] == sim.Time(60*sim.Microsecond)
	ranLast := ends[0] == sim.Time(50*sim.Microsecond) && parentDone == sim.Time(60*sim.Microsecond)
	if !ranFirst && !ranLast {
		t.Fatalf("parent at %v, ranges at %v: exclusion shape wrong", parentDone, ends[0])
	}
}

// TestBlockedMemoAgreesWithScan drives a seeded random history through three
// levels of one subtree — a Volume, its Logical child and four Stripes, so
// that descendants block ancestors, ancestors block descendants, and an
// ancestor's older head holds younger Stripe messages back (canRun's
// starvation rule) — on fewer workers than runnable affinities, and after
// every change to what pickMessage reads (a Send, a message picked and
// started, a message finished) and at every instant in between checks its
// memo against the scan the memo replaces. Messages sleep as well as compute:
// a sleeping message is what leaves workers idle behind a blocked queue.
func TestBlockedMemoAgreesWithScan(t *testing.T) {
	s := sim.New(4, 7)
	w := New(s, 3, sim.Microsecond)
	h := NewHierarchy(w, HierarchyConfig{VolumesPerAgg: 1, StripesPerVol: 4, RangesPerVBN: 1})
	vol := h.Volumes[0]
	affs := append([]*Affinity{vol.Volume, vol.Logical, vol.Logical}, vol.Stripes...)
	checks := 0
	check := func(when string) {
		checks++
		if !w.MemoSound() && !t.Failed() { // on a simulated thread: Errorf, once
			t.Errorf("%s at %v: pickMessage remembers that nothing can run, and a scan finds a message that can", when, s.Now())
		}
	}
	rng := s.Rand()
	const n = 1500
	var last sim.Duration
	for i := 0; i < n; i++ {
		aff := affs[rng.Intn(len(affs))]
		last += sim.Duration(rng.Intn(4)) * sim.Microsecond // bursts of sends at one instant
		cpu := sim.Duration(rng.Intn(3)) * sim.Microsecond
		io := sim.Duration(rng.Intn(3)) * 3 * sim.Microsecond
		s.After(last, func() {
			w.Send(aff, sim.CatOther, func(th *sim.Thread) {
				check("start")
				th.Consume(cpu)
				th.Sleep(io)
				check("before finish")
			}, func() { check("finish") })
			check("send")
		})
	}
	for at := sim.Duration(0); at < last; at += 500 * sim.Nanosecond {
		s.After(at, func() { check("tick") })
	}
	s.Run(sim.Time(sim.Second))
	st := w.Stats()
	if st.Executed != n || st.EmptyWakes < n/10 || st.MaxQueued < 10 {
		t.Fatalf("%+v after %d checks: want all %d executed through a queue that backed up behind running affinities", st, checks, n)
	}
}

// TestHerdBehindSleepingMessage: ten messages sent to a Stripe whose running
// message sleeps, with every other worker idle. Each Send wakes a worker that
// finds the one queued affinity excluded: counted, and nobody is switched into
// — the callbacks that send and the wake-ups they cause all run on the caller
// of Run. When the sleeper finishes the ten run in the order sent.
func TestHerdBehindSleepingMessage(t *testing.T) {
	s, w, h := testEnv(4)
	stripe := h.Volumes[0].Stripes[0]
	var order []int
	w.Send(stripe, sim.CatClient, func(th *sim.Thread) { th.Sleep(200 * sim.Microsecond) }, nil)
	s.Run(sim.Time(10 * sim.Microsecond))
	before, switches := w.Stats(), s.Switches()
	for i := 1; i <= 10; i++ {
		s.After(sim.Duration(i)*sim.Microsecond, func() {
			w.Send(stripe, sim.CatClient, func(th *sim.Thread) {
				order = append(order, i)
				th.Consume(sim.Microsecond)
			}, nil)
		})
	}
	s.Run(sim.Time(100 * sim.Microsecond))
	if st := w.Stats(); st.EmptyWakes-before.EmptyWakes != 10 || st.Executed != 0 || s.Switches() != switches {
		t.Fatalf("behind the sleeper: %d empty wakes, %d executed, %d switches; want 10, 0, 0",
			st.EmptyWakes-before.EmptyWakes, st.Executed, s.Switches()-switches)
	}
	s.Run(sim.Time(sim.Second))
	if got, want := fmt.Sprint(order), fmt.Sprint([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != want || w.Stats().Executed != 11 {
		t.Fatalf("order %s, executed %d; want %s and 11", got, w.Stats().Executed, want)
	}
}
