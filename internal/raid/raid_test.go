package raid

import (
	"bytes"
	"testing"

	"wafl/internal/block"
	"wafl/internal/sim"
	"wafl/internal/storage"
)

func fill(tag byte) []byte {
	b := block.New()
	for i := range b {
		b[i] = tag
	}
	return b
}

func newTestGroup(cores int) (*sim.Scheduler, *Group) {
	s := sim.New(cores, 1)
	g := NewGroup(s, 0, 4, 1024, storage.SSD)
	return s, g
}

func TestFullStripeWriteNoReads(t *testing.T) {
	s, g := newTestGroup(2)
	writes := make([][]storage.WriteReq, 4)
	for di := 0; di < 4; di++ {
		writes[di] = []storage.WriteReq{{DBN: 10, Data: fill(byte(di + 1))}}
	}
	doneAt := sim.Time(-1)
	res := g.Write(writes, sim.Microsecond, func() { doneAt = s.Now() })
	if res.FullStripes != 1 || res.PartialStripes != 0 || res.ParityReads != 0 {
		t.Fatalf("res = %+v, want 1 full stripe, no reads", res)
	}
	s.Run(sim.Time(sim.Second))
	if doneAt < 0 {
		t.Fatal("write never completed")
	}
	if !g.VerifyStripe(10) {
		t.Fatal("parity mismatch after full-stripe write")
	}
	st := g.Stats()
	if st.FullStripeWrites != 1 || st.ParityReadBlocks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPartialStripeWriteReadsMissing(t *testing.T) {
	s, g := newTestGroup(2)
	// Pre-populate drives 2,3 at stripe 5 with committed data.
	pre := make([][]storage.WriteReq, 4)
	pre[2] = []storage.WriteReq{{DBN: 5, Data: fill(0xC2)}}
	pre[3] = []storage.WriteReq{{DBN: 5, Data: fill(0xC3)}}
	g.Write(pre, 0, nil)
	s.Run(sim.Time(100 * sim.Millisecond))

	// Now write only drives 0,1 at stripe 5: a partial stripe that must
	// read drives 2,3.
	writes := make([][]storage.WriteReq, 4)
	writes[0] = []storage.WriteReq{{DBN: 5, Data: fill(1)}}
	writes[1] = []storage.WriteReq{{DBN: 5, Data: fill(2)}}
	done := false
	res := g.Write(writes, sim.Microsecond, func() { done = true })
	if res.PartialStripes != 1 || res.ParityReads != 2 {
		t.Fatalf("res = %+v, want 1 partial stripe with 2 reads", res)
	}
	s.Run(sim.Time(sim.Second))
	if !done {
		t.Fatal("write never completed")
	}
	if !g.VerifyStripe(5) {
		t.Fatal("parity mismatch after partial-stripe write")
	}
}

func TestParityCoversOldData(t *testing.T) {
	// After a partial overwrite, reconstruction of an untouched drive must
	// return its old content.
	s, g := newTestGroup(2)
	pre := make([][]storage.WriteReq, 4)
	for di := 0; di < 4; di++ {
		pre[di] = []storage.WriteReq{{DBN: 7, Data: fill(byte(0x10 + di))}}
	}
	g.Write(pre, 0, nil)
	s.Run(sim.Time(100 * sim.Millisecond))

	upd := make([][]storage.WriteReq, 4)
	upd[0] = []storage.WriteReq{{DBN: 7, Data: fill(0xEE)}}
	g.Write(upd, 0, nil)
	s.Run(sim.Time(sim.Second))

	if !g.VerifyStripe(7) {
		t.Fatal("parity mismatch after partial overwrite")
	}
	rec := g.ReconstructBlock(2, 7)
	if !bytes.Equal(rec, fill(0x12)) {
		t.Fatal("reconstruction of untouched drive returned wrong data")
	}
	rec0 := g.ReconstructBlock(0, 7)
	if !bytes.Equal(rec0, fill(0xEE)) {
		t.Fatal("reconstruction of overwritten drive returned stale data")
	}
}

func TestMultiStripeMixedWrite(t *testing.T) {
	s, g := newTestGroup(4)
	writes := make([][]storage.WriteReq, 4)
	// Stripes 20..23 fully covered; stripe 24 only half covered.
	for di := 0; di < 4; di++ {
		for dbn := block.DBN(20); dbn < 24; dbn++ {
			writes[di] = append(writes[di], storage.WriteReq{DBN: dbn, Data: fill(byte(di)*16 + byte(dbn))})
		}
	}
	writes[0] = append(writes[0], storage.WriteReq{DBN: 24, Data: fill(0xA0)})
	writes[1] = append(writes[1], storage.WriteReq{DBN: 24, Data: fill(0xA1)})
	res := g.Write(writes, sim.Microsecond, nil)
	if res.FullStripes != 4 || res.PartialStripes != 1 || res.ParityReads != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.ParityCPU != sim.Duration(5*4)*sim.Microsecond {
		t.Fatalf("parity CPU = %v", res.ParityCPU)
	}
	s.Run(sim.Time(sim.Second))
	for dbn := block.DBN(20); dbn <= 24; dbn++ {
		if !g.VerifyStripe(dbn) {
			t.Fatalf("parity mismatch at stripe %d", dbn)
		}
	}
}

func TestEmptyWriteCompletes(t *testing.T) {
	s, g := newTestGroup(1)
	done := false
	g.Write(make([][]storage.WriteReq, 4), 0, func() { done = true })
	s.Run(sim.Time(sim.Second))
	if !done {
		t.Fatal("empty write should complete")
	}
}

func TestVerifyStripeOnEmptyGroup(t *testing.T) {
	_, g := newTestGroup(1)
	if !g.VerifyStripe(0) {
		t.Fatal("all-zero stripe should verify (zero parity)")
	}
}

func TestWrongWriteShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, g := newTestGroup(1)
	g.Write(make([][]storage.WriteReq, 3), 0, nil)
}

// Stripes may mix nil (all-zero), trimmed and full-length images: parity is
// sized to the longest member, verifies, and reconstructs every member to
// its original content — also after a partial-stripe rewrite changes the
// longest member.
func TestMixedLengthImages(t *testing.T) {
	s, g := newTestGroup(2)
	// Stripe 3: nil, 64 B, 4096 B, 64 B. Stripe 4: trimmed images only.
	want := map[block.DBN][][]byte{
		3: {nil, fill(0x11)[:64], fill(0x22), fill(0x33)[:64]},
		4: {fill(0x44)[:64], fill(0x55)[:64], nil, fill(0x66)[:100]},
	}
	check := func(when string) {
		t.Helper()
		for dbn, imgs := range want {
			if !g.VerifyStripe(dbn) {
				t.Fatalf("%s: parity mismatch at stripe %d", when, dbn)
			}
			for di, img := range imgs {
				if got := g.ReconstructBlock(di, dbn); !block.Equal(got, img) {
					t.Fatalf("%s: reconstruction of (%d,%d) differs from the original", when, di, dbn)
				}
			}
		}
	}
	writes := make([][]storage.WriteReq, 4)
	for dbn, imgs := range want {
		for di, img := range imgs {
			writes[di] = append(writes[di], storage.WriteReq{DBN: dbn, Data: img})
		}
	}
	g.Write(writes, 0, nil)
	s.Run(sim.Time(100 * sim.Millisecond))
	check("full-stripe write")
	if n := len(g.ParityDrive().Peek(4)); n != 100 {
		t.Fatalf("parity of a trimmed-only stripe is %d bytes, want 100 (its longest member)", n)
	}

	// Partial rewrites: the only full-length member shrinks, a nil member
	// becomes full-length; the rest is read back for parity.
	want[3][2] = fill(0x77)[:64]
	want[4][2] = fill(0x88)
	upd := make([][]storage.WriteReq, 4)
	upd[2] = []storage.WriteReq{{DBN: 3, Data: want[3][2]}, {DBN: 4, Data: want[4][2]}}
	if res := g.Write(upd, 0, nil); res.PartialStripes != 2 || res.ParityReads != 6 {
		t.Fatalf("res = %+v, want 2 partial stripes with 6 reads", res)
	}
	s.Run(sim.Time(sim.Second))
	check("partial-stripe rewrite")

	// Verification is exact: one flipped tail byte fails it.
	g.ParityDrive().Peek(4)[block.Size-1] ^= 1
	if g.VerifyStripe(4) {
		t.Fatal("corrupt parity verified")
	}
}

// rewrite writes stripe dbn on the given data drives with fresh images of n
// bytes, as the allocator does: a new array per block.
func rewrite(g *Group, dbn block.DBN, n int, tag byte, drives ...int) {
	writes := make([][]storage.WriteReq, g.DataDrives())
	for _, di := range drives {
		writes[di] = []storage.WriteReq{{DBN: dbn, Data: fill(tag + byte(di))[:n]}}
	}
	g.Write(writes, 0, nil)
}

// TestParityArraysReused: rewriting the same stripes over and over, full and
// partial, long and short images, the parity arrays completed writes
// displace come back for the next parity longer than half a block — far
// fewer arrays than parity writes — and every stripe still verifies.
func TestParityArraysReused(t *testing.T) {
	s, g := newTestGroup(2)
	const stripes, rounds = 16, 30
	arrays := map[*byte]bool{}
	writes := 0
	for r := 0; r < rounds; r++ {
		for dbn := block.DBN(1); dbn <= stripes; dbn++ {
			switch (r + int(dbn)) % 3 {
			case 0:
				rewrite(g, dbn, block.Size, byte(r), 0, 1, 2, 3)
			case 1:
				rewrite(g, dbn, block.Size, byte(r), 1, 2) // partial: drives 0 and 3 are read
			default:
				rewrite(g, dbn, 64, byte(r), 0, 1, 2, 3)
			}
			writes++
		}
		s.RunFor(10 * sim.Millisecond)
		for dbn := block.DBN(1); dbn <= stripes; dbn++ {
			if !g.VerifyStripe(dbn) {
				t.Fatalf("round %d: parity mismatch at stripe %d", r, dbn)
			}
			if p := g.ParityDrive().Peek(dbn); len(p) > block.Size/2 {
				arrays[&p[0]] = true
			}
		}
	}
	t.Logf("%d parity writes, %d distinct long parity arrays", writes, len(arrays))
	if len(arrays) > 3*stripes {
		t.Fatalf("%d parity writes left %d distinct long parity arrays on the media; want them reused", writes, len(arrays))
	}
}

// parityFaults tears every in-flight write at a crash down to its first block.
type parityFaults struct{}

func (parityFaults) WriteFault(string, int) storage.WriteFault { return storage.WriteFault{} }
func (parityFaults) ReadFault(string, int) storage.ReadFault   { return storage.ReadFault{} }
func (parityFaults) PeekFault(string, block.DBN) bool          { return false }
func (parityFaults) CrashPrefix(string, int) int               { return 1 }

// TestCrashNeverRecyclesParity: a parity array displaced by a crash's torn
// landing is never reused — a crash path returns nothing to a free list —
// while one a completed write displaces is.
func TestCrashNeverRecyclesParity(t *testing.T) {
	s, g := newTestGroup(2)
	g.ParityDrive().SetInjector(parityFaults{})
	rewrite(g, 7, block.Size, 1, 0, 1, 2, 3)
	s.RunFor(10 * sim.Millisecond)
	torn := g.ParityDrive().Peek(7)
	want := bytes.Clone(torn)

	// The rewrite's parity lands torn on top of the committed one.
	rewrite(g, 7, block.Size, 2, 0, 1, 2, 3)
	for i := range g.DataDrives() {
		g.Drive(i).DropInFlight()
	}
	g.ParityDrive().DropInFlight()
	s.RunFor(10 * sim.Millisecond)
	if &g.ParityDrive().Peek(7)[0] == &torn[0] {
		t.Fatal("the torn parity write did not land")
	}

	// New stripes take parity arrays from the free list if it has any.
	for dbn := block.DBN(20); dbn < 30; dbn++ {
		rewrite(g, dbn, block.Size, 3, 0, 1, 2, 3)
	}
	s.RunFor(10 * sim.Millisecond)
	for dbn := block.DBN(20); dbn < 30; dbn++ {
		if &g.ParityDrive().Peek(dbn)[0] == &torn[0] {
			t.Fatalf("stripe %d's parity reuses the array a torn landing displaced", dbn)
		}
	}
	if !bytes.Equal(torn, want) {
		t.Fatal("the array a torn landing displaced was written into")
	}

	// A completed write's displaced parity is reused by the next stripe.
	done := g.ParityDrive().Peek(20)
	rewrite(g, 20, block.Size, 4, 0, 1, 2, 3)
	s.RunFor(10 * sim.Millisecond)
	rewrite(g, 40, block.Size, 5, 0, 1, 2, 3)
	s.RunFor(10 * sim.Millisecond)
	if &g.ParityDrive().Peek(40)[0] != &done[0] || !g.VerifyStripe(40) {
		t.Fatal("the parity array a completed write displaced was not reused, or reused wrong")
	}
}
