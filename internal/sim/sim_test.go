package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	s := New(1, 1)
	if s.Now() != 0 {
		t.Fatalf("initial time = %v, want 0", s.Now())
	}
	s.Run(Time(5 * Second))
	if s.Now() != Time(5*Second) {
		t.Fatalf("time after Run = %v, want 5s", s.Now())
	}
}

func TestSingleThreadConsume(t *testing.T) {
	s := New(1, 1)
	var end Time
	s.Go("worker", CatOther, func(th *Thread) {
		th.Consume(10 * Microsecond)
		th.Consume(5 * Microsecond)
		end = th.Now()
	})
	s.Run(Time(Second))
	if end != Time(15*Microsecond) {
		t.Fatalf("thread finished at %v, want 15us", end)
	}
	if got := s.CPU().Busy[CatOther]; got != 15*Microsecond {
		t.Fatalf("busy = %v, want 15us", got)
	}
}

func TestCPUQueueingOnOneCore(t *testing.T) {
	// Two threads each needing 10us of CPU on a single core must finish at
	// 10us and 20us.
	s := New(1, 1)
	var ends []Time
	for i := 0; i < 2; i++ {
		s.Go(fmt.Sprintf("w%d", i), CatOther, func(th *Thread) {
			th.Consume(10 * Microsecond)
			ends = append(ends, th.Now())
		})
	}
	s.Run(Time(Second))
	if len(ends) != 2 || ends[0] != Time(10*Microsecond) || ends[1] != Time(20*Microsecond) {
		t.Fatalf("ends = %v, want [10us 20us]", ends)
	}
}

func TestCPUParallelismOnManyCores(t *testing.T) {
	// Eight threads of 10us each on 8 cores all finish at 10us.
	s := New(8, 1)
	var ends []Time
	for i := 0; i < 8; i++ {
		s.Go(fmt.Sprintf("w%d", i), CatOther, func(th *Thread) {
			th.Consume(10 * Microsecond)
			ends = append(ends, th.Now())
		})
	}
	s.Run(Time(Second))
	for _, e := range ends {
		if e != Time(10*Microsecond) {
			t.Fatalf("ends = %v, want all 10us", ends)
		}
	}
}

func TestCoreCapacityNeverExceeded(t *testing.T) {
	// With 3 cores and 10 threads issuing bursts, total busy time over the
	// window can never exceed 3 * wall.
	const cores = 3
	s := New(cores, 42)
	for i := 0; i < 10; i++ {
		s.Go(fmt.Sprintf("w%d", i), CatOther, func(th *Thread) {
			for j := 0; j < 100; j++ {
				th.Consume(Duration(1+j%7) * Microsecond)
			}
		})
	}
	s.Run(Time(10 * Millisecond))
	stats := s.CPU()
	if got, limit := totalBusy(stats), Duration(stats.Wall)*cores; got > limit {
		t.Fatalf("total busy %v exceeds capacity %v", got, limit)
	}
	// All work should have completed: 10 threads * 100 bursts of avg 4us =
	// 4ms of work on 3 cores ≈ 1.33ms << 10ms.
	if s.Live() != 0 {
		t.Fatalf("%d threads still live", s.Live())
	}
}

func TestSleepDoesNotOccupyCore(t *testing.T) {
	s := New(1, 1)
	var sleeperEnd, workerEnd Time
	s.Go("sleeper", CatOther, func(th *Thread) {
		th.Sleep(100 * Microsecond)
		sleeperEnd = th.Now()
	})
	s.Go("worker", CatClient, func(th *Thread) {
		th.Consume(50 * Microsecond)
		workerEnd = th.Now()
	})
	s.Run(Time(Second))
	if workerEnd != Time(50*Microsecond) {
		t.Fatalf("worker end %v, want 50us (sleep must not hold the core)", workerEnd)
	}
	if sleeperEnd != Time(100*Microsecond) {
		t.Fatalf("sleeper end %v, want 100us", sleeperEnd)
	}
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	s := New(4, 1)
	m := NewMutex(s, "test")
	var order []string
	inCS := 0
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		s.Go(name, CatOther, func(th *Thread) {
			m.Lock(th)
			inCS++
			if inCS != 1 {
				t.Errorf("mutual exclusion violated: %d threads in CS", inCS)
			}
			th.Consume(10 * Microsecond)
			order = append(order, th.Name())
			inCS--
			m.Unlock(th)
		})
	}
	s.Run(Time(Second))
	want := []string{"w0", "w1", "w2", "w3"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want FIFO %v", order, want)
		}
	}
	if w := s.Stats().MutexWait; w.Count != 3 {
		t.Fatalf("contended = %d, want 3", w.Count)
	}
	if s.Stats().MutexWait.Sum == 0 {
		t.Fatal("expected nonzero wait time")
	}
}

func TestWaitQueueSignalOrder(t *testing.T) {
	s := New(4, 1)
	q := NewWaitQueue(s, "q")
	var woken []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		s.Go(name, CatOther, func(th *Thread) {
			th.Consume(Duration(i+1) * Microsecond)
			q.Wait(th)
			woken = append(woken, th.Name())
		})
	}
	s.Go("signaler", CatOther, func(th *Thread) {
		th.Sleep(Duration(100 * Microsecond))
		for q.Signal() {
		}
	})
	s.Run(Time(Second))
	if len(woken) != 3 {
		t.Fatalf("woken = %v, want 3 threads", woken)
	}
}

func TestWaitWithReleasesMutex(t *testing.T) {
	s := New(2, 1)
	m := NewMutex(s, "m")
	q := NewWaitQueue(s, "q")
	var sequence []string
	s.Go("waiter", CatOther, func(th *Thread) {
		m.Lock(th)
		sequence = append(sequence, "waiter-locked")
		q.WaitWith(th, m)
		sequence = append(sequence, "waiter-woken")
		m.Unlock(th)
	})
	s.Go("signaler", CatOther, func(th *Thread) {
		th.Sleep(10 * Microsecond)
		m.Lock(th) // must be acquirable while waiter waits
		sequence = append(sequence, "signaler-locked")
		q.Signal()
		m.Unlock(th)
	})
	s.Run(Time(Second))
	want := []string{"waiter-locked", "signaler-locked", "waiter-woken"}
	if len(sequence) != len(want) {
		t.Fatalf("sequence = %v, want %v", sequence, want)
	}
	for i := range want {
		if sequence[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", sequence, want)
		}
	}
}

func TestBroadcast(t *testing.T) {
	s := New(4, 1)
	q := NewWaitQueue(s, "q")
	woken := 0
	for i := 0; i < 5; i++ {
		s.Go(fmt.Sprintf("w%d", i), CatOther, func(th *Thread) {
			q.Wait(th)
			woken++
		})
	}
	s.Go("b", CatOther, func(th *Thread) {
		th.Sleep(Duration(Millisecond))
		if n := q.Broadcast(); n != 5 {
			t.Errorf("Broadcast woke %d, want 5", n)
		}
	})
	s.Run(Time(Second))
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestAfterCallbacksFireInOrder(t *testing.T) {
	s := New(1, 1)
	var fired []int
	s.After(30*Microsecond, func() { fired = append(fired, 3) })
	s.After(10*Microsecond, func() { fired = append(fired, 1) })
	s.After(20*Microsecond, func() { fired = append(fired, 2) })
	s.After(10*Microsecond, func() { fired = append(fired, 11) }) // same time: insertion order
	s.Run(Time(Second))
	want := []int{1, 11, 2, 3}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestCategoryAccounting(t *testing.T) {
	s := New(2, 1)
	s.Go("mixed", CatClient, func(th *Thread) {
		th.Consume(10 * Microsecond)
		th.ConsumeAs(CatInfra, 20*Microsecond)
		th.ConsumeAs(CatCleaner, 30*Microsecond)
	})
	s.Run(Time(Second))
	st := s.CPU()
	if st.Busy[CatClient] != 10*Microsecond || st.Busy[CatInfra] != 20*Microsecond || st.Busy[CatCleaner] != 30*Microsecond {
		t.Fatalf("accounting = %+v", st.Busy)
	}
}

func TestCoresCalculation(t *testing.T) {
	s := New(4, 1)
	for i := 0; i < 2; i++ {
		s.Go(fmt.Sprintf("w%d", i), CatCleaner, func(th *Thread) {
			for th.Now() < Time(1*Second) {
				th.Consume(100 * Microsecond)
			}
		})
	}
	start := s.CPU()
	s.Run(Time(1 * Second))
	end := s.CPU()
	cores := end.Cores(start, CatCleaner)
	if cores < 1.9 || cores > 2.1 {
		t.Fatalf("cleaner cores = %.2f, want ~2", cores)
	}
}

// runFingerprint runs a small chaotic simulation and returns a fingerprint of
// its behaviour for determinism comparison.
func runFingerprint(seed int64) string {
	s := New(4, seed)
	m := NewMutex(s, "m")
	q := NewWaitQueue(s, "q")
	var trace []string
	shared := 0
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("w%d", i)
		s.Go(name, CatOther, func(th *Thread) {
			for j := 0; j < 50; j++ {
				th.Consume(Duration(s.Rand().Intn(10)+1) * Microsecond)
				m.Lock(th)
				shared++
				if shared%17 == 0 {
					trace = append(trace, fmt.Sprintf("%s@%d", th.Name(), th.Now()))
				}
				m.Unlock(th)
				if j%13 == 5 {
					q.Signal()
				}
				if j%11 == 7 {
					th.Sleep(Duration(s.Rand().Intn(20)) * Microsecond)
				}
			}
		})
	}
	s.Run(Time(100 * Millisecond))
	return fmt.Sprintf("%v|%d|%d|%d", trace, shared, s.Events(), s.Switches())
}

func TestDeterminism(t *testing.T) {
	a := runFingerprint(7)
	b := runFingerprint(7)
	if a != b {
		t.Fatalf("same seed produced different runs:\n%s\n%s", a, b)
	}
	c := runFingerprint(8)
	if a == c {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestQuickCPUConservation(t *testing.T) {
	// Property: for any set of bursts across any core count, accounted busy
	// time equals the sum of requested bursts, and the finish time is at
	// least total/cores.
	f := func(coreSeed uint8, burstSeeds []uint16) bool {
		cores := int(coreSeed%8) + 1
		if len(burstSeeds) == 0 {
			return true
		}
		if len(burstSeeds) > 64 {
			burstSeeds = burstSeeds[:64]
		}
		s := New(cores, 1)
		var total Duration
		for i, bs := range burstSeeds {
			d := Duration(bs%1000+1) * Microsecond
			total += d
			s.Go(fmt.Sprintf("w%d", i), CatOther, func(th *Thread) {
				th.Consume(d)
			})
		}
		s.Run(Time(Second * 1000))
		if totalBusy(s.CPU()) != total {
			return false
		}
		return s.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGoAt(t *testing.T) {
	s := New(1, 1)
	var started Time
	s.GoAt(Time(42*Microsecond), "late", CatOther, func(th *Thread) {
		started = th.Now()
	})
	s.Run(Time(Second))
	if started != Time(42*Microsecond) {
		t.Fatalf("started at %v, want 42us", started)
	}
}

func TestYield(t *testing.T) {
	s := New(1, 1)
	var order []string
	s.Go("a", CatOther, func(th *Thread) {
		th.Yield()
		order = append(order, "a")
	})
	s.Go("b", CatOther, func(th *Thread) {
		order = append(order, "b")
	})
	s.Run(Time(Second))
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestHaltAtEvent(t *testing.T) {
	s := New(1, 1)
	fired := 0
	for i := 0; i < 20; i++ {
		i := i
		s.After(Duration(i+1)*Microsecond, func() { fired++ })
	}
	s.HaltAtEvent(5)
	s.Run(Time(Second))
	if !s.Halted() {
		t.Fatal("Run did not halt at event threshold")
	}
	if s.Events() != 5 || fired != 5 {
		t.Fatalf("events=%d fired=%d, want 5", s.Events(), fired)
	}
	if s.Now() != Time(5*Microsecond) {
		t.Fatalf("clock advanced to %v, want time of 5th event", s.Now())
	}
	// Resuming with the threshold already met halts immediately.
	s.Run(Time(Second))
	if !s.Halted() || fired != 5 {
		t.Fatalf("resumed run should halt immediately (fired=%d)", fired)
	}
	// Disabling the threshold lets the run finish and the clock reach until.
	s.HaltAtEvent(0)
	s.Run(Time(Second))
	if s.Halted() || fired != 20 || s.Now() != Time(Second) {
		t.Fatalf("halted=%v fired=%d now=%v, want full completion", s.Halted(), fired, s.Now())
	}
}

func TestRequestHaltFromEvent(t *testing.T) {
	s := New(1, 1)
	fired := 0
	for i := 0; i < 10; i++ {
		i := i
		s.After(Duration(i+1)*Microsecond, func() {
			fired++
			if i == 2 {
				s.RequestHalt()
			}
		})
	}
	s.Run(Time(Second))
	if !s.Halted() || fired != 3 {
		t.Fatalf("halted=%v fired=%d, want halt after 3rd event", s.Halted(), fired)
	}
	// The request is one-shot: the next Run completes.
	s.Run(Time(Second))
	if s.Halted() || fired != 10 {
		t.Fatalf("halted=%v fired=%d, want completed run", s.Halted(), fired)
	}
}

func TestHaltDeterministicResume(t *testing.T) {
	// A run halted at event k and resumed must match an uninterrupted run.
	run := func(haltAt uint64) (Time, uint64) {
		s := New(2, 7)
		var total Duration
		for i := 0; i < 4; i++ {
			s.Go(fmt.Sprintf("w%d", i), CatOther, func(th *Thread) {
				for j := 0; j < 50; j++ {
					th.Consume(3 * Microsecond)
					th.Sleep(Duration(j) * Microsecond)
				}
				total += th.Busy()
			})
		}
		if haltAt > 0 {
			s.HaltAtEvent(haltAt)
			s.Run(Time(Second))
			s.HaltAtEvent(0)
		}
		s.Run(Time(Second))
		return s.Now(), s.Events()
	}
	n1, e1 := run(0)
	n2, e2 := run(97)
	if n1 != n2 || e1 != e2 {
		t.Fatalf("halt+resume diverged: now %v vs %v, events %d vs %d", n1, n2, e1, e2)
	}
}
