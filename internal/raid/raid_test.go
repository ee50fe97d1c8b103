package raid

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
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
	if n := len(xorAll(g.ParityDrive().Peek(4))); n != 100 {
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

	// Verification is exact: a parity row whose XOR differs in one tail byte
	// fails it.
	flip := block.New()
	flip[block.Size-1] = 1
	g.ParityDrive().Write([]storage.Req[[][]byte]{{DBN: 4, Data: append(slices.Clone(g.ParityDrive().Peek(4)), flip)}}, nil)
	s.RunFor(10 * sim.Millisecond)
	if g.VerifyStripe(4) {
		t.Fatal("corrupt parity verified")
	}
}

// tornFaults tears each write in flight at a crash to a prefix drawn from rng.
type tornFaults struct{ rng *rand.Rand }

func (tornFaults) WriteFault(string, int) storage.WriteFault { return storage.WriteFault{} }
func (tornFaults) ReadFault(string, int) storage.ReadFault   { return storage.ReadFault{} }
func (tornFaults) PeekFault(string, block.DBN) bool          { return false }
func (f tornFaults) CrashPrefix(_ string, n int) int         { return f.rng.Intn(n + 1) }

// eagerXOR is the reference parity: the images XORed into a fresh array as
// long as the longest.
func eagerXOR(imgs ...[]byte) []byte {
	n := 0
	for _, img := range imgs {
		n = max(n, len(img))
	}
	out := make([]byte, n)
	for _, img := range imgs {
		block.XOR(out, img)
	}
	return out
}

// sameImage reports whether a and b hold the same bytes at the same length.
func sameImage(a, b []byte) bool { return len(a) == len(b) && bytes.Equal(a, b) }

// history runs a seeded mix of full, partial and short rewrites on a group of
// tornFaults drives over rng, one Write at a time, and crashes a quarter of
// them mid-flight, tearing data and parity writes. After each Write has
// landed or been dropped it calls step with the rows the Write's parity
// covers: the images it wrote and, for a partial stripe, the committed ones
// phase A reads. It returns the group, every image submitted and a clone of
// each, taken at its submission.
func history(t *testing.T, steps int, rng *rand.Rand, step func(n int, g *Group, rows map[block.DBN][][]byte)) (g *Group, submitted, clones [][]byte) {
	const stripes = 12
	s := sim.New(2, 1)
	g = NewGroup(s, 0, 4, stripes, storage.SSD)
	nd := g.DataDrives()
	for di := range nd {
		g.Drive(di).SetInjector(tornFaults{rng})
	}
	g.ParityDrive().SetInjector(tornFaults{rng})
	for n := range steps {
		writes := make([][]storage.WriteReq, nd)
		rows := map[block.DBN][][]byte{}
		for _, k := range rng.Perm(stripes)[:1+rng.Intn(4)] {
			dbn := block.DBN(k)
			row := make([][]byte, nd)
			for di := range row {
				row[di] = g.Drive(di).Peek(dbn)
			}
			// Full by default: every drive, full-length images.
			drives, length := rng.Perm(nd), func() int { return block.Size }
			switch rng.Intn(3) {
			case 1: // partial, of any lengths: the rest is read back
				drives = drives[:1+rng.Intn(nd-1)]
				length = func() int { return rng.Intn(block.Size + 1) }
			case 2: // short: every drive, at most half a block, some nil
				length = func() int { return rng.Intn(block.Size/2 + 1) }
			}
			for _, di := range drives {
				size := length()
				var img []byte
				if size > 0 {
					img = make([]byte, size)
					rng.Read(img)
				}
				row[di] = img
				writes[di] = append(writes[di], storage.WriteReq{DBN: dbn, Data: img})
				submitted, clones = append(submitted, img), append(clones, bytes.Clone(img))
			}
			rows[dbn] = row
		}
		g.Write(writes, 0, nil)
		if rng.Intn(4) == 0 {
			s.RunFor(sim.Duration(rng.Intn(250)) * sim.Microsecond)
			g.DropInFlight()
		}
		s.RunFor(sim.Millisecond)
		if k := g.Stats().ScratchPool.Outstanding(); k != 0 {
			t.Fatalf("step %d: %d stripe scratch outstanding after every write landed or was dropped", n, k)
		}
		step(n, g, rows)
	}
	return g, submitted, clones
}

// TestParityByReference pins the parity drive's contract against an eager
// reference, over history. When a stripe's parity write lands (the parity
// drive holds a new row for it), the reference XORs the images the test
// knows it covered, at once. After every Write, xorAll of the landed row,
// VerifyStripe and ReconstructBlock must match what the reference implies
// byte for byte, length included. At the end every image submitted still
// equals the clone taken at its submission: the immutability the lazy XOR
// relies on.
func TestParityByReference(t *testing.T) {
	const stripes = 12
	ref := make([][]byte, stripes)     // eager parity of each stripe's landed row
	landed := make([]*[]byte, stripes) // identity of that row
	inconsistent := 0
	g, submitted, clones := history(t, 400, rand.New(rand.NewSource(7)), func(step int, g *Group, rows map[block.DBN][][]byte) {
		nd := g.DataDrives()
		for dbn, row := range rows {
			if p := g.ParityDrive().Peek(dbn); p != nil && &p[0] != landed[dbn] {
				landed[dbn], ref[dbn] = &p[0], eagerXOR(row...)
			}
		}

		for k := range stripes {
			dbn := block.DBN(k)
			if got := xorAll(g.ParityDrive().Peek(dbn)); !sameImage(got, ref[dbn]) {
				t.Fatalf("step %d: stripe %d's parity reads %d bytes unlike the %d-byte reference", step, dbn, len(got), len(ref[dbn]))
			}
			data := make([][]byte, nd)
			for di := range data {
				data[di] = g.Drive(di).Peek(dbn)
			}
			consistent := block.Equal(eagerXOR(data...), ref[dbn])
			if g.VerifyStripe(dbn) != consistent {
				t.Fatalf("step %d: VerifyStripe(%d) = %v, the reference says %v", step, dbn, !consistent, consistent)
			}
			if !consistent {
				inconsistent++
			}
			for di := range nd {
				others := append(slices.Delete(slices.Clone(data), di, di+1), ref[dbn])
				if got := g.ReconstructBlock(di, dbn); !sameImage(got, eagerXOR(others...)) {
					t.Fatalf("step %d: ReconstructBlock(%d, %d) differs from the reference", step, di, dbn)
				}
			}
		}
	})
	for i, img := range submitted {
		if !sameImage(img, clones[i]) {
			t.Fatalf("submitted image %d was written into after submission", i)
		}
	}
	st := g.Stats()
	torn := g.ParityDrive().Stats().TornWrites
	t.Logf("%d full and %d partial stripe writes, %d torn parity writes, %d inconsistent stripe checks",
		st.FullStripeWrites, st.PartialStripeWrites, torn, inconsistent)
	if st.FullStripeWrites == 0 || st.PartialStripeWrites == 0 || torn == 0 || inconsistent == 0 {
		t.Fatal("the mix did not cover full and partial stripes, torn parity and the write hole")
	}
}

// TestForgetIsExact forgets random blocks between the Writes of history, torn
// crashes included, and snapshots every VerifyStripe and ReconstructBlock
// before each round. Forget must drop a block, data image and row entry,
// exactly when the parity row holds that very image, and otherwise drop
// nothing. Every VerifyStripe and every reconstruction of a block not
// forgotten must then read as before — as the same block: a reconstruction
// loses zero tail when the stripe's longest image goes.
func TestForgetIsExact(t *testing.T) {
	type loc struct {
		di  int
		dbn block.DBN
	}
	rng := rand.New(rand.NewSource(11))
	var forgot, refused, rowsDropped int
	history(t, 400, rng, func(step int, g *Group, _ map[block.DBN][][]byte) {
		nd, stripes := g.DataDrives(), int(g.Depth())
		verify := make([]bool, stripes)
		recon := map[loc][]byte{}
		for k := range stripes {
			dbn := block.DBN(k)
			verify[k] = g.VerifyStripe(dbn)
			for di := range nd {
				recon[loc{di, dbn}] = g.ReconstructBlock(di, dbn)
			}
		}
		gone := map[loc]bool{}
		for range rng.Intn(nd) {
			b := loc{rng.Intn(nd), block.DBN(rng.Intn(stripes))}
			img, row := g.Drive(b.di).Peek(b.dbn), slices.Clone(g.ParityDrive().Peek(b.dbn))
			// history's images are nil or non-empty.
			want := img != nil && row != nil && len(row[b.di]) == len(img) && &row[b.di][0] == &img[0]
			got := g.Forget(b.di, b.dbn)
			after, afterRow := g.Drive(b.di).Peek(b.dbn), g.ParityDrive().Peek(b.dbn)
			switch {
			case got != want:
				t.Fatalf("step %d: Forget%v = %v, want %v", step, b, got, want)
			case !got && (!sameArray(after, img) || len(afterRow) != len(row)):
				t.Fatalf("step %d: a refused Forget%v dropped the image or the row", step, b)
			case got && after != nil:
				t.Fatalf("step %d: Forget%v left the data image", step, b)
			}
			if got {
				row[b.di] = nil
				gone[b] = true
				forgot++
			} else if img != nil {
				refused++
			}
			if afterRow == nil && row != nil {
				rowsDropped++
				afterRow = make([][]byte, nd)
			}
			for di := range row {
				if !sameArray(afterRow[di], row[di]) || (afterRow[di] == nil) != (row[di] == nil) {
					t.Fatalf("step %d: Forget%v left row entry %d other than it was", step, b, di)
				}
			}
		}
		for k := range stripes {
			dbn := block.DBN(k)
			if g.VerifyStripe(dbn) != verify[k] {
				t.Fatalf("step %d: VerifyStripe(%d) moved from %v", step, dbn, verify[k])
			}
			for di := range nd {
				if b := (loc{di, dbn}); !gone[b] && !block.Equal(g.ReconstructBlock(di, dbn), recon[b]) {
					t.Fatalf("step %d: ReconstructBlock%v moved", step, b)
				}
			}
		}
	})
	t.Logf("%d blocks forgotten, %d refused, %d rows dropped", forgot, refused, rowsDropped)
	if forgot == 0 || refused == 0 || rowsDropped == 0 {
		t.Fatal("the rounds did not cover a forget, a refused one and a dropped row")
	}
}

// TestWarmWriteAllocatesRowsOnly: a warm Write of fresh full stripes
// allocates one row of image references per stripe, beyond what every Write
// costs, and no image bytes. An eager parity would be a 4 KiB array each.
func TestWarmWriteAllocatesRowsOnly(t *testing.T) {
	s := sim.New(2, 1)
	g := NewGroup(s, 0, 4, 1<<14, storage.SSD)
	img := fill(1)
	next := block.DBN(1)
	writer := func(k int) func() {
		writes := make([][]storage.WriteReq, g.DataDrives())
		return func() {
			for di := range writes {
				writes[di] = writes[di][:0]
				for j := range k {
					writes[di] = append(writes[di], storage.WriteReq{DBN: next + block.DBN(j), Data: img})
				}
			}
			next += block.DBN(k)
			g.Write(writes, 0, nil)
			s.RunFor(sim.Millisecond)
		}
	}
	measure := func(k int) (allocs, bytes float64) {
		const runs = 50
		w := writer(k)
		allocs = testing.AllocsPerRun(runs, w)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			w()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const k1, k2 = 4, 12
	a1, b1 := measure(k1)
	a2, b2 := measure(k2)
	perStripe := (b2 - b1) / (k2 - k1)
	t.Logf("%v allocs for %d stripes, %v for %d; %.0f bytes per stripe", a1, k1, a2, k2, perStripe)
	if a2-a1 != k2-k1 {
		t.Fatalf("%d more stripes allocate %v more times, want one row each", k2-k1, a2-a1)
	}
	// A row of four 24-byte slice headers is 96 bytes.
	if perStripe > 128 {
		t.Fatalf("a fresh full stripe allocates %.0f bytes, want its row alone", perStripe)
	}
}

// BenchmarkGroupWrite is a Group.Write of 64 full stripes of 4 KiB images
// across 4 data drives, run to completion (five drive I/Os and their
// completion events): the per-layer raid.write_* numbers, per block written.
func BenchmarkGroupWrite(b *testing.B) {
	const stripes = 64
	s := sim.New(2, 1)
	g := NewGroup(s, 0, 4, 1<<16, storage.SSD)
	writes := make([][]storage.WriteReq, g.DataDrives())
	for di := range writes {
		img := fill(byte(di + 1))
		for range stripes {
			writes[di] = append(writes[di], storage.WriteReq{Data: img})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := block.DBN(i * stripes % (1<<16 - stripes))
		for di := range writes {
			for k := range writes[di] {
				writes[di][k].DBN = base + block.DBN(k)
			}
		}
		g.Write(writes, 0, nil)
		s.Drain(s.Now() + sim.Time(sim.Second))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stripes*len(writes)), "ns/block")
}
