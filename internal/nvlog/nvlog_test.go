package nvlog

import (
	"testing"
)

func rec(ino uint64, n int) Record {
	return Record{Kind: OpWrite, Ino: ino, Data: make([]byte, n)}
}

// activeBytes is the bytes used in the active half.
func activeBytes(l *Log) uint64 { return l.halves[l.active].bytes }

func TestAppendAndFullness(t *testing.T) {
	l := New(1000)
	if !l.Append(rec(1, 100)) { // 132 bytes
		t.Fatal("append failed")
	}
	if l.ActiveOps() != 1 || activeBytes(l) != 132 {
		t.Fatalf("ops=%d bytes=%d", l.ActiveOps(), activeBytes(l))
	}
	if f := l.Fullness(); f < 0.13 || f > 0.14 {
		t.Fatalf("fullness = %f", f)
	}
}

func TestAppendRejectsWhenFull(t *testing.T) {
	l := New(300)
	if !l.Append(rec(1, 100)) || !l.Append(rec(2, 100)) {
		t.Fatal("appends should fit")
	}
	if l.Append(rec(3, 100)) {
		t.Fatal("third append must not fit (396+132 > 300... actually 264+132)")
	}
	if l.Stalls != 1 {
		t.Fatalf("stalls = %d", l.Stalls)
	}
}

func TestSequenceNumbersMonotone(t *testing.T) {
	l := New(10000)
	l.Append(rec(1, 0))
	l.Append(rec(2, 0))
	l.Switch()
	l.Append(rec(3, 0))
	rs := l.Replay()
	if len(rs) != 3 {
		t.Fatalf("replay %d records", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Seq <= rs[i-1].Seq {
			t.Fatal("replay out of order")
		}
	}
}

func TestSwitchAndFreeCycle(t *testing.T) {
	l := New(1000)
	l.Append(rec(1, 100))
	l.Switch()
	if !l.HasFrozen() {
		t.Fatal("no frozen half after switch")
	}
	if activeBytes(l) != 0 {
		t.Fatal("active half should be empty after switch")
	}
	l.Append(rec(2, 100))
	got := l.Replay()
	if len(got) != 2 || got[0].Ino != 1 || got[1].Ino != 2 {
		t.Fatalf("replay = %+v", got)
	}
	l.FreeFrozen()
	if l.HasFrozen() {
		t.Fatal("frozen half not freed")
	}
	got = l.Replay()
	if len(got) != 1 || got[0].Ino != 2 {
		t.Fatalf("replay after free = %+v", got)
	}
}

func TestSwitchWhileDrainingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := New(1000)
	l.Append(rec(1, 0))
	l.Switch()
	l.Switch()
}

func TestFreeWithoutFrozenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1000).FreeFrozen()
}

func TestBackToBackBehaviour(t *testing.T) {
	// Fill active, switch, fill the new active: further appends stall
	// until FreeFrozen + Switch.
	l := New(200)
	if !l.Append(rec(1, 100)) {
		t.Fatal("first append")
	}
	l.Switch()
	if !l.Append(rec(2, 100)) {
		t.Fatal("second append")
	}
	if l.Append(rec(3, 100)) {
		t.Fatal("must stall: both halves occupied")
	}
	l.FreeFrozen() // CP 1 done
	l.Switch()     // CP 2 starts draining ino 2
	if !l.Append(rec(3, 100)) {
		t.Fatal("append after switch")
	}
}

func TestReserveBlocksAppendCapacity(t *testing.T) {
	l := New(1000)
	res, ok := l.Reserve(800)
	if !ok {
		t.Fatal("reserve should fit")
	}
	// A plain Append must respect the reservation.
	if l.Append(rec(1, 400)) {
		t.Fatal("append must not overlap reserved space")
	}
	if l.Stalls != 1 {
		t.Fatalf("stalls = %d", l.Stalls)
	}
	// Reserved appends always succeed and consume the reservation.
	res.Append(rec(2, 368)) // size 400
	res.Append(rec(3, 368))
	if l.ActiveOps() != 2 {
		t.Fatalf("ops = %d", l.ActiveOps())
	}
	// Reservation fully consumed: normal appends work again.
	if !l.Append(rec(4, 100)) {
		t.Fatal("append should fit after reservation consumed")
	}
}

func TestReserveRejectsWhenFull(t *testing.T) {
	l := New(500)
	if !l.Append(rec(1, 300)) { // 332 bytes
		t.Fatal("append")
	}
	if _, ok := l.Reserve(300); ok {
		t.Fatal("reserve should fail when the half cannot hold it")
	}
	if _, ok := l.Reserve(100); !ok {
		t.Fatal("smaller reserve should fit")
	}
}

func TestReservationSurvivesSwitch(t *testing.T) {
	// A reservation made before a half switch applies to the new active
	// half: the records land with the next CP generation, consistent with
	// their buffers.
	l := New(1000)
	res, ok := l.Reserve(400)
	if !ok {
		t.Fatal("reserve")
	}
	l.Append(rec(1, 0))
	l.Switch()
	res.Append(rec(2, 368))
	if l.ActiveOps() != 1 {
		t.Fatalf("active ops = %d, want the reserved record in the new half", l.ActiveOps())
	}
	rs := l.Replay()
	if len(rs) != 2 || rs[0].Ino != 1 || rs[1].Ino != 2 {
		t.Fatalf("replay = %+v", rs)
	}
}

func TestReserveOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(100).Reserve(200)
}

func TestOvershootPanicsInsteadOfRaidingPool(t *testing.T) {
	// Regression: a record larger than its own reservation used to clamp
	// the *shared* pool to zero, silently consuming other in-flight ops'
	// promised space. It must panic instead.
	l := New(2000)
	resA, ok := l.Reserve(200)
	if !ok {
		t.Fatal("reserve A")
	}
	if _, ok := l.Reserve(600); !ok { // op B's claim, must stay intact
		t.Fatal("reserve B")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overshoot")
		}
	}()
	resA.Append(rec(1, 400)) // size 432 > 200
}

func TestReservationsIsolated(t *testing.T) {
	// Two ops' reservations do not interact: A consuming all of its claim
	// leaves B's claim (and the pool accounting) intact.
	l := New(1000)
	resA, okA := l.Reserve(400)
	resB, okB := l.Reserve(400)
	if !okA || !okB {
		t.Fatal("reserves should fit")
	}
	resA.Append(rec(1, 368)) // exactly 400 bytes
	if resA.Remaining() != 0 {
		t.Fatalf("A remaining = %d", resA.Remaining())
	}
	if resB.Remaining() != 400 {
		t.Fatalf("B remaining = %d", resB.Remaining())
	}
	// Pool still holds B's 400: a 200-byte append must stall (400 used +
	// 400 reserved + 332 > 1000).
	if l.Append(rec(3, 300)) {
		t.Fatal("append must respect B's surviving reservation")
	}
	resB.Append(rec(2, 368))
	if !l.Append(rec(3, 100)) {
		t.Fatal("append should fit once B consumed its claim")
	}
}

func TestReleaseReturnsLeftover(t *testing.T) {
	l := New(1000)
	res, ok := l.Reserve(800)
	if !ok {
		t.Fatal("reserve")
	}
	res.Append(rec(1, 168)) // 200 bytes, 600 left on the claim
	res.Release()
	if res.Remaining() != 0 {
		t.Fatalf("remaining after release = %d", res.Remaining())
	}
	// All 800 reserved bytes are accounted for: 200 appended, 600 freed.
	if !l.Append(rec(2, 700)) { // 732 bytes; 200+732 <= 1000
		t.Fatal("released space not returned to the pool")
	}
	res.Release() // idempotent
}

func TestRestorePreservesSeqAndProtects(t *testing.T) {
	// Simulate the post-crash path: records from both halves are replayed
	// and must be re-logged into the new log with their original sequence
	// numbers, even if together they exceed one half's capacity.
	old := New(500)
	old.Append(rec(1, 300)) // 332 bytes
	old.Switch()
	old.Append(rec(2, 300))
	recs := old.Replay()
	if len(recs) != 2 {
		t.Fatalf("replay = %d records", len(recs))
	}

	fresh := New(500)
	fresh.Restore(recs)
	if fresh.ActiveOps() != 2 {
		t.Fatalf("restored ops = %d", fresh.ActiveOps())
	}
	if activeBytes(fresh) != 664 { // over halfCap by design
		t.Fatalf("restored bytes = %d", activeBytes(fresh))
	}
	got := fresh.Replay()
	for i := range recs {
		if got[i].Seq != recs[i].Seq || got[i].Ino != recs[i].Ino {
			t.Fatalf("record %d mutated: got %+v want %+v", i, got[i], recs[i])
		}
	}
	// New appends continue after the highest restored seq.
	fresh.Switch()
	fresh.Append(rec(3, 0))
	rs := fresh.Replay()
	last := rs[len(rs)-1]
	if last.Ino != 3 || last.Seq <= recs[1].Seq {
		t.Fatalf("post-restore seq not monotone: %+v", last)
	}
}

// Once both halves have been through a CP, Append reuses the record arrays
// FreeFrozen kept — and FreeFrozen still drops the payload references.
func TestSteadyStateAppendAllocatesNothing(t *testing.T) {
	l := New(1 << 20)
	r := rec(1, 64)
	cycle := func() {
		for i := 0; i < 100; i++ {
			if !l.Append(r) {
				t.Fatal("append failed")
			}
		}
		l.Switch()
		l.FreeFrozen()
	}
	cycle()
	cycle() // both halves have grown to 100 records
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("steady-state Append/Switch/FreeFrozen cycle allocates %v times, want 0", n)
	}
	freed := l.halves[1-l.active].recs
	if len(freed) != 0 || freed[:1][0].Data != nil {
		t.Fatal("FreeFrozen must empty the half and drop its payload references")
	}
	if len(l.Replay()) != 0 {
		t.Fatal("freed records must not replay")
	}
}
