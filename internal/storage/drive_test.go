package storage

import (
	"bytes"
	"testing"

	"wafl/internal/allocs"
	"wafl/internal/block"
	"wafl/internal/fifo"
	"wafl/internal/sim"
)

func testBlock(tag byte) []byte {
	b := block.New()
	for i := range b {
		b[i] = tag
	}
	return b
}

func TestWriteThenRead(t *testing.T) {
	s := sim.New(2, 1)
	d := NewDrive(s, "d0", SSD, 1024)
	var got []block.Image
	s.Go("io", sim.CatOther, func(th *sim.Thread) {
		d.WriteSync(th, []WriteReq{{DBN: 5, Data: testBlock(0xAA)}, {DBN: 6, Data: testBlock(0xBB)}})
		got = d.ReadSync(th, []block.DBN{5, 6, 7})
	})
	s.Run(sim.Time(sim.Second))
	if len(got) != 3 {
		t.Fatalf("got %d blocks", len(got))
	}
	if !bytes.Equal(got[0].Bytes, testBlock(0xAA)) || !bytes.Equal(got[1].Bytes, testBlock(0xBB)) {
		t.Fatal("read data mismatch")
	}
	if !got[2].IsNil() {
		t.Fatal("never-written block should read nil")
	}
}

func TestServiceTimeModel(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", Profile{Name: "p", PerIO: 100 * sim.Microsecond, PerBlock: 10 * sim.Microsecond}, 1024)
	var end sim.Time
	s.Go("io", sim.CatOther, func(th *sim.Thread) {
		d.WriteSync(th, []WriteReq{{DBN: 1, Data: testBlock(1)}, {DBN: 2, Data: testBlock(2)}, {DBN: 3, Data: testBlock(3)}})
		end = th.Now()
	})
	s.Run(sim.Time(sim.Second))
	if end != sim.Time(130*sim.Microsecond) {
		t.Fatalf("3-block write completed at %v, want 130us", end)
	}
}

func TestFCFSQueueing(t *testing.T) {
	// Two I/Os submitted back-to-back are serviced serially.
	s := sim.New(4, 1)
	d := NewDrive(s, "d0", Profile{Name: "p", PerIO: 100 * sim.Microsecond, PerBlock: 0}, 1024)
	var ends []sim.Time
	d.Write([]WriteReq{{DBN: 1, Data: testBlock(1)}}, func() { ends = append(ends, s.Now()) })
	d.Write([]WriteReq{{DBN: 2, Data: testBlock(2)}}, func() { ends = append(ends, s.Now()) })
	s.Run(sim.Time(sim.Second))
	if len(ends) != 2 || ends[0] != sim.Time(100*sim.Microsecond) || ends[1] != sim.Time(200*sim.Microsecond) {
		t.Fatalf("ends = %v, want [100us 200us]", ends)
	}
}

func TestCrashDropsInFlightWrites(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", Profile{Name: "p", PerIO: 100 * sim.Microsecond, PerBlock: 0}, 1024)
	committed := false
	d.Write([]WriteReq{{DBN: 1, Data: testBlock(1)}}, func() { committed = true })
	// Crash at 50us, before the 100us completion.
	s.After(50*sim.Microsecond, func() { d.DropInFlight() })
	s.Run(sim.Time(sim.Second))
	if committed {
		t.Fatal("in-flight write completed despite crash")
	}
	if d.Image(1).Expand() != nil {
		t.Fatal("in-flight write landed on media despite crash")
	}
}

func TestCrashPreservesCompletedWrites(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", Profile{Name: "p", PerIO: 100 * sim.Microsecond, PerBlock: 0}, 1024)
	d.Write([]WriteReq{{DBN: 1, Data: testBlock(7)}}, nil)
	s.After(200*sim.Microsecond, func() { d.DropInFlight() })
	s.Run(sim.Time(sim.Second))
	if !bytes.Equal(d.Image(1).Expand(), testBlock(7)) {
		t.Fatal("completed write lost by crash")
	}
}

func TestStats(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", SSD, 1024)
	s.Go("io", sim.CatOther, func(th *sim.Thread) {
		d.WriteSync(th, []WriteReq{{DBN: 1, Data: testBlock(1)}, {DBN: 2, Data: testBlock(2)}})
		d.ReadSync(th, []block.DBN{1})
	})
	s.Run(sim.Time(sim.Second))
	st := d.Stats()
	if st.WriteService.Count != 1 || st.BlocksWritten != 2 || st.ReadService.Count != 1 || st.BlocksRead != 1 {
		t.Fatalf("stats = %+v", st)
	}
	w, r := SSD.PerIO+2*SSD.PerBlock, SSD.PerIO+SSD.PerBlock
	if st.WriteService.Count != 1 || sim.Duration(st.WriteService.Sum) != w || st.ReadService.Count != 1 || sim.Duration(st.ReadService.Sum) != r {
		t.Fatalf("service times: write %v, read %v; want one of %v, one of %v", st.WriteService, st.ReadService, w, r)
	}
}

// TestOutOfRangeWritePanics: a write to a DBN beyond the device is refused
// at submission.
func TestOutOfRangeWritePanics(t *testing.T) {
	for _, r := range []WriteReq{{DBN: 10, Data: testBlock(1)}, {DBN: 11, Name: block.NameOf(1, 1, 0, 64)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on a write to dbn %d of %d bytes", r.DBN, len(r.Data))
				}
			}()
			s := sim.New(1, 1)
			d := NewDrive(s, "d0", SSD, 10)
			d.Write([]WriteReq{r}, nil)
		}()
	}
}

func TestEmptyIO(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", SSD, 10)
	called := false
	d.Write(nil, func() { called = true })
	s.Run(sim.Time(sim.Second))
	if !called {
		t.Fatal("empty write should still complete")
	}
	if st := d.Stats(); st.WriteService.Count != 0 {
		t.Fatal("empty write should not count as an I/O")
	}
}

// stubInjector is a programmable Injector for drive-level tests.
type stubInjector struct {
	writeFault  WriteFault
	readFault   ReadFault
	crashPrefix int
	peekFail    map[block.DBN]int // dbn -> remaining failures
}

func (in *stubInjector) WriteFault(string, int) WriteFault { return in.writeFault }
func (in *stubInjector) ReadFault(string, int) ReadFault   { return in.readFault }
func (in *stubInjector) CrashPrefix(string, int) int       { return in.crashPrefix }
func (in *stubInjector) PeekFault(_ string, dbn block.DBN) bool {
	if in.peekFail == nil || in.peekFail[dbn] == 0 {
		return false
	}
	in.peekFail[dbn]--
	return true
}

func TestTornWriteAtCrash(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", SSD, 1024)
	d.SetInjector(&stubInjector{crashPrefix: 2})
	fired := false
	d.Write([]WriteReq{
		{DBN: 10, Data: testBlock(1)},
		{DBN: 11, Data: testBlock(2)},
		{DBN: 12, Data: testBlock(3)},
	}, func() { fired = true })
	// Crash before the I/O completes: only the 2-block prefix lands.
	d.DropInFlight()
	s.Run(sim.Time(sim.Second))
	if fired {
		t.Fatal("completion fired for a crashed I/O")
	}
	if d.Image(10).Expand() == nil || d.Image(11).Expand() == nil {
		t.Fatal("torn-write prefix did not land")
	}
	if d.Image(12).Expand() != nil {
		t.Fatal("torn-write suffix landed")
	}
	st := d.Stats()
	if st.TornWrites != 1 || st.TornBlocksLost != 1 {
		t.Fatalf("torn stats = %+v", st)
	}
	if d.InflightWrites() != 0 {
		t.Fatal("inflight list not cleared by crash")
	}
}

func TestUntornCrashLandsNothing(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", SSD, 1024)
	d.Write([]WriteReq{{DBN: 3, Data: testBlock(9)}}, nil)
	d.DropInFlight()
	s.Run(sim.Time(sim.Second))
	if d.Image(3).Expand() != nil {
		t.Fatal("in-flight write landed without injector")
	}
}

func TestDelayedWriteCompletion(t *testing.T) {
	s := sim.New(1, 1)
	plain := NewDrive(s, "p", SSD, 64)
	delayed := NewDrive(s, "q", SSD, 64)
	delayed.SetInjector(&stubInjector{writeFault: WriteFault{Delay: 500 * sim.Microsecond}})
	var tPlain, tDelayed sim.Time
	plain.Write([]WriteReq{{DBN: 1, Data: testBlock(1)}}, func() { tPlain = s.Now() })
	delayed.Write([]WriteReq{{DBN: 1, Data: testBlock(1)}}, func() { tDelayed = s.Now() })
	s.Run(sim.Time(sim.Second))
	if tDelayed != tPlain+sim.Time(500*sim.Microsecond) {
		t.Fatalf("delayed completion at %v, plain at %v", tDelayed, tPlain)
	}
	if delayed.Stats().DelayedIOs != 1 {
		t.Fatalf("stats = %+v", delayed.Stats())
	}
}

func TestPeekCheckedFaults(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", SSD, 64)
	var wrote bool
	d.Write([]WriteReq{{DBN: 2, Data: testBlock(5)}}, func() { wrote = true })
	s.Run(sim.Time(sim.Second))
	if !wrote {
		t.Fatal("setup write did not complete")
	}
	d.SetInjector(&stubInjector{peekFail: map[block.DBN]int{2: 1}})
	if _, ok := d.PeekChecked(2); ok {
		t.Fatal("first peek should fail (transient)")
	}
	if b, ok := d.PeekChecked(2); !ok || !bytes.Equal(b.Bytes, testBlock(5)) {
		t.Fatal("retry peek should succeed with committed data")
	}
	if d.Stats().PeekErrors != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
	// The god-view Peek is never subject to injection.
	d.SetInjector(&stubInjector{peekFail: map[block.DBN]int{2: 100}})
	if !bytes.Equal(d.Image(2).Expand(), testBlock(5)) {
		t.Fatal("raw Peek must bypass faults")
	}
}

// TestSteadyStateWriteAllocatesOnlyItsCompletion pins the in-flight record's
// lifetime: once a completed write has returned its record, the next Write
// copies its requests and callback into that record, whose completion is a
// method bound once, so a steady-state Write allocates nothing.
func TestSteadyStateWriteAllocatesOnlyItsCompletion(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", SSD, 1024)
	reqs := []WriteReq{{DBN: 1, Data: testBlock(1)}, {DBN: 2, Data: testBlock(2)}}
	done := func() {}
	write := func() {
		d.Write(reqs, done)
		s.RunFor(sim.Millisecond)
	}
	write()
	if n := idle(d.Stats().WritePool); n != 1 {
		t.Fatalf("%d spare records after one completed write, want 1", n)
	}
	if n := allocs.Count(100, write); n != 0 {
		t.Fatalf("100 steady-state Writes allocate %d objects, want 0", n)
	}
}

// idle returns the records a pool holds for its next Gets.
func idle(st fifo.PoolStats) uint64 { return st.New + st.Returned - st.Taken }

// TestReadRecordLifetime: a completed read returns its record, so a warm Read
// and a warm ReadSync allocate nothing; a read a crash dropped keeps its
// record, and its stale completion neither calls back nor returns it.
func TestReadRecordLifetime(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", SSD, 64)
	d.Write([]WriteReq{{DBN: 1, Data: testBlock(1)}, {DBN: 2, Data: testBlock(2)}}, nil)
	s.RunFor(sim.Millisecond)
	var got []block.Image
	calls := 0
	done := func(bs []block.Image) { got = append(got[:0], bs...); calls++ }
	dbns := []block.DBN{1, 2}
	read := func() {
		d.Read(dbns, done)
		s.RunFor(sim.Millisecond)
	}
	read()
	if n := allocs.Count(100, read); n != 0 {
		t.Fatalf("100 warm Reads allocate %d objects, want 0", n)
	}
	syncAllocs := ^uint64(0)
	s.Go("reader", sim.CatOther, func(th *sim.Thread) {
		d.ReadSync(th, dbns)
		syncAllocs = allocs.Count(100, func() { d.ReadSync(th, dbns) })
	})
	s.RunFor(sim.Second)
	if syncAllocs != 0 {
		t.Fatalf("100 warm ReadSyncs allocate %d objects, want 0", syncAllocs)
	}

	calls = 0
	d.Read([]block.DBN{2}, done)
	if idle(d.Stats().ReadPool) != 0 {
		t.Fatal("the read in flight did not take the spare record")
	}
	d.DropInFlight()
	read() // the dropped read's stale completion fires here too
	st := d.Stats().ReadPool
	if calls != 1 || idle(st) != 1 {
		t.Fatalf("%d callbacks, %d spare records; want the post-crash read's 1 and its record alone", calls, idle(st))
	}
	if st.Abandoned != 1 || st.Outstanding() != 0 {
		t.Fatalf("read pool %+v: want the dropped read abandoned and nothing outstanding", st)
	}
	if len(got) != 2 || !bytes.Equal(got[0].Bytes, testBlock(1)) || !bytes.Equal(got[1].Bytes, testBlock(2)) {
		t.Fatal("the post-crash read did not see what it named")
	}
}

// TestCrashNeverRecyclesInFlightRecords: a record a crash tore is dropped,
// not reused. Writes after the crash land exactly what they name, the torn
// write's stale completion returns nothing to the free list, and its suffix
// never reaches the media.
func TestCrashNeverRecyclesInFlightRecords(t *testing.T) {
	s := sim.New(1, 1)
	d := NewDrive(s, "d0", SSD, 64)
	d.SetInjector(&stubInjector{crashPrefix: 1})
	want := map[block.DBN][]byte{}
	write := func(reqs ...WriteReq) {
		d.Write(reqs, nil)
		for _, r := range reqs {
			want[r.DBN] = r.Data
		}
	}
	write(WriteReq{DBN: 10, Data: testBlock(1)}, WriteReq{DBN: 11, Data: testBlock(2)})
	s.RunFor(sim.Millisecond)
	// The torn write reuses the first write's record.
	write(WriteReq{DBN: 20, Data: testBlock(3)}, WriteReq{DBN: 21, Data: testBlock(4)})
	if idle(d.Stats().WritePool) != 0 {
		t.Fatal("in-flight write did not take the spare record")
	}
	d.DropInFlight()
	delete(want, 21) // the torn suffix
	write(WriteReq{DBN: 30, Data: testBlock(5)})
	write(WriteReq{DBN: 31, Data: testBlock(6)}, WriteReq{DBN: 32, Data: testBlock(7)})
	s.RunFor(sim.Millisecond) // the torn write's stale completion fires here too
	if st := d.Stats().WritePool; idle(st) != 2 || st.Abandoned != 1 {
		t.Fatalf("%d spare records, %d abandoned after two post-crash writes, want 2 and the torn one", idle(st), st.Abandoned)
	}
	write(WriteReq{DBN: 40, Data: testBlock(8)})
	write(WriteReq{DBN: 41, Data: testBlock(9)}, WriteReq{DBN: 42, Data: testBlock(10)})
	s.RunFor(sim.Millisecond)
	for dbn := block.DBN(0); dbn < d.Blocks(); dbn++ {
		if got := d.Image(dbn).Expand(); !bytes.Equal(got, want[dbn]) || (got == nil) != (want[dbn] == nil) {
			t.Fatalf("dbn %d holds %v, want %v", dbn, got[:min(len(got), 1)], want[dbn][:min(len(want[dbn]), 1)])
		}
	}
}
