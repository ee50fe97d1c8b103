package raid

import (
	"bytes"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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

// delayOnce delays the first write I/O of the drives it is set on.
type delayOnce struct {
	tornFaults
	delay sim.Duration
}

func (f *delayOnce) WriteFault(string, int) storage.WriteFault {
	d := f.delay
	f.delay = 0
	return storage.WriteFault{Delay: d}
}

// TestOverlappingWritesReadLandedData: two partial-stripe writes whose stripes
// overlap, the first's data write delayed. The second's reconstruction reads
// must see the first's data, not the images it replaces, so once both are
// done every stripe they touch verifies. (A shadow of the rows each write
// computed, as TestDerivedParityMatchesRows keeps, cannot see this: the
// second's rows are stale as computed.)
func TestOverlappingWritesReadLandedData(t *testing.T) {
	s, g := newTestGroup(2)
	pre := make([][]storage.WriteReq, 4)
	for di := range pre {
		for dbn := block.DBN(1); dbn <= 4; dbn++ {
			pre[di] = append(pre[di], storage.WriteReq{DBN: dbn, Data: fill(byte(0x10*di) + byte(dbn))})
		}
	}
	g.Write(pre, 0, nil)
	s.Run(sim.Time(100 * sim.Millisecond))

	g.Drive(0).SetInjector(&delayOnce{delay: sim.Millisecond})
	first, second := make([][]storage.WriteReq, 4), make([][]storage.WriteReq, 4)
	for dbn := block.DBN(1); dbn <= 3; dbn++ {
		first[0] = append(first[0], storage.WriteReq{DBN: dbn, Data: fill(0xA0 + byte(dbn))})
		second[1] = append(second[1], storage.WriteReq{DBN: dbn + 1, Data: fill(0xB0 + byte(dbn))})
	}
	done := 0
	g.Write(first, 0, func() { done++ })
	g.Write(second, 0, func() { done++ })
	s.Run(sim.Time(sim.Second))
	if done != 2 {
		t.Fatalf("%d of 2 writes done", done)
	}
	for dbn := block.DBN(1); dbn <= 4; dbn++ {
		if !g.VerifyStripe(dbn) {
			t.Errorf("stripe %d: parity does not cover its data", dbn)
		}
	}
	if err := g.CheckRows(); err != nil {
		t.Fatal(err)
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
	if row, _ := g.row(4); len(xorAll(row)) != 100 {
		t.Fatalf("parity of a trimmed-only stripe is %d bytes, want 100 (its longest member)", len(xorAll(row)))
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
	row, _ := g.row(4)
	g.rows[4] = append(slices.Clone(row), block.Image{Bytes: flip})
	if g.VerifyStripe(4) {
		t.Fatal("corrupt parity verified")
	}
}

// tornFaults tears each write in flight at a crash to a prefix drawn from
// rng, and records the parity drive's prefixes in the order it tore them.
type tornFaults struct {
	rng    *rand.Rand
	parity []int
}

func (*tornFaults) WriteFault(string, int) storage.WriteFault { return storage.WriteFault{} }
func (*tornFaults) ReadFault(string, int) storage.ReadFault   { return storage.ReadFault{} }
func (*tornFaults) PeekFault(string, block.DBN) bool          { return false }

func (f *tornFaults) CrashPrefix(drive string, n int) int {
	p := f.rng.Intn(n + 1)
	if strings.HasSuffix(drive, ".parity") {
		f.parity = append(f.parity, p)
	}
	return p
}

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

// sameArray reports whether byte images a and b are the same bytes of the
// same array; two empty images are one.
func sameArray(a, b []byte) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

// bytesOf returns the byte images of row, whose entries the tests write as
// bytes.
func bytesOf(row []block.Image) [][]byte {
	out := make([][]byte, len(row))
	for i, img := range row {
		out[i] = img.Bytes
	}
	return out
}

// sameRow reports whether rows a and b hold, entry for entry, the same
// images: the same arrays, and nil where the other is nil.
func sameRow(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, func(x, y []byte) bool { return (x == nil) == (y == nil) && sameArray(x, y) })
}

// Kinds of stripe rewrite addStripe draws.
const (
	fullStripe = iota
	partialStripe
	shortStripe
)

// addStripe adds a rewrite of stripe dbn to writes, of a kind drawn from rng
// — full: every drive, full-length images; partial: some drives, of any
// lengths, the rest read back for parity; short: every drive, at most half a
// block, a quarter of them nil — and sets in row the images it writes. It
// returns the kind and those images.
func addStripe(rng *rand.Rand, writes [][]storage.WriteReq, dbn block.DBN, row [][]byte) (kind int, imgs [][]byte) {
	drives, length := rng.Perm(len(writes)), func() int { return block.Size }
	switch kind = rng.Intn(3); kind {
	case partialStripe:
		drives = drives[:1+rng.Intn(len(writes)-1)]
		length = func() int { return rng.Intn(block.Size + 1) }
	case shortStripe:
		length = func() int {
			if rng.Intn(4) == 0 {
				return 0
			}
			return 1 + rng.Intn(block.Size/2)
		}
	}
	for _, di := range drives {
		var img []byte
		if size := length(); size > 0 {
			img = make([]byte, size)
			rng.Read(img)
		}
		row[di] = img
		writes[di] = append(writes[di], storage.WriteReq{DBN: dbn, Data: img})
		imgs = append(imgs, img)
	}
	return kind, imgs
}

// history runs a seeded mix of full, partial and short rewrites on a group of
// tornFaults drives over rng, one Write at a time, and crashes a quarter of
// them mid-flight, tearing data and parity writes. After each Write has
// landed or been dropped it calls step with the rows its parity write landed
// — every stripe's once that write completed, a torn one's prefix, none
// before it was submitted — each row the images the Write wrote and, for a
// partial stripe, the committed ones phase A reads. It returns the group,
// every image submitted and a clone of each, taken at its submission.
func history(t *testing.T, steps int, rng *rand.Rand, step func(n int, g *Group, landed map[block.DBN][][]byte)) (g *Group, submitted, clones [][]byte) {
	const stripes = 12
	s := sim.New(2, 1)
	g = NewGroup(s, 0, 4, stripes, storage.SSD)
	nd := g.DataDrives()
	inj := &tornFaults{rng: rng}
	for di := range nd {
		g.Drive(di).SetInjector(inj)
	}
	g.ParityDrive().SetInjector(inj)
	for n := range steps {
		writes := make([][]storage.WriteReq, nd)
		rows := map[block.DBN][][]byte{}
		for _, k := range rng.Perm(stripes)[:1+rng.Intn(4)] {
			dbn := block.DBN(k)
			row := make([][]byte, nd)
			for di := range row {
				row[di] = g.Drive(di).Image(dbn).Expand()
			}
			_, imgs := addStripe(rng, writes, dbn, row)
			for _, img := range imgs {
				submitted, clones = append(submitted, img), append(clones, bytes.Clone(img))
			}
			rows[dbn] = row
		}
		submittedIOs := g.ParityDrive().Stats().WriteService.Count
		inj.parity = inj.parity[:0]
		g.Write(writes, 0, nil)
		if rng.Intn(4) == 0 {
			s.RunFor(sim.Duration(rng.Intn(250)) * sim.Microsecond)
			g.DropInFlight()
		}
		s.RunFor(sim.Millisecond)
		if st := g.Stats(); st.ScratchPool.Outstanding() != 0 || st.WritePool.Outstanding() != 0 {
			t.Fatalf("step %d: %d stripe scratch and %d write records outstanding after every write landed or was dropped",
				n, st.ScratchPool.Outstanding(), st.WritePool.Outstanding())
		}
		landed := map[block.DBN][][]byte{}
		if g.ParityDrive().Stats().WriteService.Count > submittedIOs {
			dbns := slices.Sorted(maps.Keys(rows)) // the parity write's order
			if len(inj.parity) > 0 {
				dbns = dbns[:inj.parity[0]]
			}
			for _, dbn := range dbns {
				landed[dbn] = rows[dbn]
			}
		}
		step(n, g, landed)
	}
	return g, submitted, clones
}

// TestParityByReference pins the group's parity contract against an eager
// reference, over history. When a stripe's parity write lands, the reference
// XORs the images the test knows it covered, at once. After every Write,
// xorAll of the covered row (explicit or derived), VerifyStripe and
// ReconstructBlock must match what the reference implies byte for byte,
// length included. At the end every image submitted still equals the clone
// taken at its submission: the immutability the lazy XOR relies on.
func TestParityByReference(t *testing.T) {
	const stripes = 12
	ref := make([][]byte, stripes) // eager parity of each stripe's landed row
	inconsistent := 0
	g, submitted, clones := history(t, 400, rand.New(rand.NewSource(7)), func(step int, g *Group, landed map[block.DBN][][]byte) {
		nd := g.DataDrives()
		for dbn, row := range landed {
			ref[dbn] = eagerXOR(row...)
		}

		for k := range stripes {
			dbn := block.DBN(k)
			if covered, _ := g.row(dbn); !sameImage(xorAll(covered), ref[dbn]) {
				got := xorAll(covered)
				t.Fatalf("step %d: stripe %d's parity reads %d bytes unlike the %d-byte reference", step, dbn, len(got), len(ref[dbn]))
			}
			data := make([][]byte, nd)
			for di := range data {
				data[di] = g.Drive(di).Image(dbn).Expand()
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
// crashes included — half of them of an image an explicit row holds too —
// and snapshots every VerifyStripe and ReconstructBlock
// before each round. Forget must drop a block, data image and covered-row
// entry, exactly when the covered row holds that very image, and otherwise
// drop nothing. Every VerifyStripe and every reconstruction of a block not
// forgotten must then read as before — as the same block: a reconstruction
// loses zero tail when the stripe's longest image goes.
func TestForgetIsExact(t *testing.T) {
	type loc struct {
		di  int
		dbn block.DBN
	}
	rng := rand.New(rand.NewSource(11))
	var forgot, refused, rowsEmptied int
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
		// Half the forgets aim at an image that an explicit row a crash left
		// holds, as its drive does.
		var stale []block.DBN
		for k := range stripes {
			if _, explicit := g.row(block.DBN(k)); explicit {
				stale = append(stale, block.DBN(k))
			}
		}
		gone := map[loc]bool{}
		for range rng.Intn(nd) {
			b := loc{rng.Intn(nd), block.DBN(rng.Intn(stripes))}
			if len(stale) > 0 && rng.Intn(2) == 0 {
				b.dbn = stale[rng.Intn(len(stale))]
				row, _ := g.row(b.dbn)
				var held []int
				for di, img := range row {
					if !img.IsNil() && same(img, g.Drive(di).Image(b.dbn)) {
						held = append(held, di)
					}
				}
				if len(held) > 0 {
					b.di = held[rng.Intn(len(held))]
				}
			}
			covered, explicit := g.row(b.dbn)
			img, row := g.Drive(b.di).Image(b.dbn), slices.Clone(covered)
			// history's images are nil or non-empty.
			want := !img.IsNil() && same(row[b.di], img)
			got := g.Forget(b.di, b.dbn)
			after := g.Drive(b.di).Image(b.dbn)
			afterRow, _ := g.row(b.dbn)
			switch {
			case got != want:
				t.Fatalf("step %d: Forget%v = %v, want %v", step, b, got, want)
			case !got && (!same(after, img) || len(afterRow) != len(row)):
				t.Fatalf("step %d: a refused Forget%v dropped the image or the row", step, b)
			case got && !after.IsNil():
				t.Fatalf("step %d: Forget%v left the data image", step, b)
			}
			if got {
				row[b.di] = block.Image{}
				gone[b] = true
				forgot++
			} else if !img.IsNil() {
				refused++
			}
			if got && explicit && !slices.ContainsFunc(afterRow, func(img block.Image) bool { return !img.IsNil() }) {
				rowsEmptied++
			}
			for di := range row {
				if !same(afterRow[di], row[di]) {
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
	t.Logf("%d blocks forgotten, %d refused, %d explicit rows emptied", forgot, refused, rowsEmptied)
	if forgot == 0 || refused == 0 || rowsEmptied == 0 {
		t.Fatal("the rounds did not cover a forget, a refused one and an explicit row emptied")
	}
}

// delayFaults is tornFaults that also delays a third of all write I/Os by up
// to 400 µs, so a stripe's data and parity land in either order.
type delayFaults struct{ tornFaults }

func (f *delayFaults) WriteFault(string, int) storage.WriteFault {
	if f.rng.Intn(3) > 0 {
		return storage.WriteFault{}
	}
	return storage.WriteFault{Delay: sim.Duration(f.rng.Intn(400)) * sim.Microsecond}
}

// trackedWrite is a write of the group whose parity I/O is submitted: its
// stripes and their rows as submitted (clones; the images are the same).
type trackedWrite struct {
	rec    *stripeWrite
	dbns   []block.DBN
	rows   [][][]byte
	landed bool
}

// rowModel runs one group against a shadow of the rule before derived
// parity: every row that landed is kept, and a stripe's
// parity is its row's XOR.
type rowModel struct {
	t       *testing.T
	rng     *rand.Rand
	s       *sim.Scheduler
	g       *Group
	inj     *delayFaults
	shadow  [][][]byte      // each stripe's last landed row; nil before any
	tracked []*trackedWrite // in submission order
	writing []*[]block.DBN  // the stripes of each Write not yet done, nil once done

	kinds                                     [3]int
	overlaps, dataFirst, parityFirst, forgets int
	refused, holes, events                    int
}

// busy reports whether a Write not yet done covers stripe dbn.
func (m *rowModel) busy(dbn block.DBN) bool {
	return slices.ContainsFunc(m.writing, func(w *[]block.DBN) bool { return *w != nil && slices.Contains(*w, dbn) })
}

// write submits a Write of one to three random stripes.
func (m *rowModel) write() {
	nd := m.g.DataDrives()
	writes := make([][]storage.WriteReq, nd)
	var dbns []block.DBN
	for _, k := range m.rng.Perm(int(m.g.Depth()))[:1+m.rng.Intn(3)] {
		dbn := block.DBN(k)
		if m.busy(dbn) {
			m.overlaps++
		}
		kind, _ := addStripe(m.rng, writes, dbn, make([][]byte, nd))
		m.kinds[kind]++
		dbns = append(dbns, dbn)
	}
	w := &dbns
	m.writing = append(m.writing, w)
	m.g.Write(writes, 0, func() { *w = nil })
	m.observe()
}

// land lands the first n rows of tw in the shadow.
func (m *rowModel) land(tw *trackedWrite, n int) {
	for k := range n {
		m.shadow[tw.dbns[k]] = tw.rows[k]
	}
	tw.landed = true
}

// observe brings the shadow up to the group's state after an event: a write
// that completed, or whose parity I/O has landed, landed its parity (a parity
// I/O lands whole, and at most one lands an event); a write newly submitted
// is tracked.
func (m *rowModel) observe() {
	kept := m.tracked[:0]
	for _, tw := range m.tracked {
		inFlight := slices.Contains(m.g.inflight, tw.rec)
		if !tw.landed && (!inFlight || tw.rec.landed) {
			// The data landed first if the write completed with this landing,
			// or if every image it covers is on its drive already.
			ahead := true
			for k, dbn := range tw.dbns {
				for di, img := range tw.rows[k] {
					ahead = ahead && sameArray(m.g.Drive(di).Image(dbn).Bytes, img)
				}
			}
			if ahead || !inFlight {
				m.dataFirst++
			} else {
				m.parityFirst++
			}
			m.land(tw, len(tw.dbns))
		}
		if inFlight {
			kept = append(kept, tw)
		}
	}
	m.tracked = kept
	for _, w := range m.g.inflight {
		if slices.ContainsFunc(m.tracked, func(tw *trackedWrite) bool { return tw.rec == w }) {
			continue
		}
		tw := &trackedWrite{rec: w}
		for k, r := range w.parity {
			tw.dbns, tw.rows = append(tw.dbns, r.DBN), append(tw.rows, bytesOf(w.rows[k]))
		}
		m.tracked = append(m.tracked, tw)
	}
	m.writing = slices.DeleteFunc(m.writing, func(w *[]block.DBN) bool { return *w == nil })
}

// event dispatches one event, if one is due within a second, and checks.
func (m *rowModel) event(step int) bool {
	m.s.HaltAtEvent(m.s.Events() + 1)
	n := m.s.Drain(m.s.Now() + sim.Time(sim.Second))
	m.s.HaltAtEvent(0)
	if n == 0 {
		return false
	}
	m.events++
	m.observe()
	m.check(step, "an event")
	return true
}

// crash drops the group's I/O in flight: the shadow lands the prefix the
// injector tore of each parity I/O that had not landed, in submission order.
func (m *rowModel) crash(step int) {
	m.inj.parity = m.inj.parity[:0]
	m.g.DropInFlight()
	var torn []*trackedWrite
	for _, tw := range m.tracked {
		if !tw.landed {
			torn = append(torn, tw)
		}
	}
	if len(torn) != len(m.inj.parity) {
		m.t.Fatalf("step %d: %d parity I/Os torn, %d in flight", step, len(m.inj.parity), len(torn))
	}
	for i, tw := range torn {
		m.land(tw, m.inj.parity[i])
	}
	m.tracked, m.writing = m.tracked[:0], m.writing[:0]
	m.check(step, "a crash")
	for k := range m.g.Depth() {
		if _, explicit := m.g.row(k); explicit {
			m.holes++
		}
	}
}

// forget forgets a block of a stripe no Write covers, as the shadow would.
func (m *rowModel) forget(step int) {
	di, dbn := m.rng.Intn(m.g.DataDrives()), block.DBN(m.rng.Intn(int(m.g.Depth())))
	if m.busy(dbn) {
		return
	}
	img, row := m.g.Drive(di).Image(dbn).Expand(), m.shadow[dbn]
	want := img != nil && row != nil && row[di] != nil && sameArray(row[di], img)
	if got := m.g.Forget(di, dbn); got != want {
		m.t.Fatalf("step %d: Forget(%d, %d) = %v, the shadow says %v", step, di, dbn, got, want)
	}
	if !want {
		m.refused++
		return
	}
	m.forgets++
	row = slices.Clone(row)
	row[di] = nil
	if !slices.ContainsFunc(row, func(img []byte) bool { return img != nil }) {
		row = nil
	}
	m.shadow[dbn] = row
	m.check(step, "a forget")
}

// check compares every stripe's VerifyStripe and ReconstructBlock with the
// shadow's, byte for byte and length included, and requires each explicit
// row to belong to a stripe a Write covers or whose row is not its data.
func (m *rowModel) check(step int, after string) {
	m.t.Helper()
	nd := m.g.DataDrives()
	for dbn := range m.g.Depth() {
		data := make([][]byte, nd)
		for di := range data {
			data[di] = m.g.Drive(di).Image(dbn).Expand()
		}
		srow := m.shadow[dbn]
		if want := block.Equal(eagerXOR(data...), eagerXOR(srow...)); m.g.VerifyStripe(dbn) != want {
			m.t.Fatalf("step %d, after %s: VerifyStripe(%d) = %v, the shadow says %v", step, after, dbn, !want, want)
		}
		for di := range nd {
			want := eagerXOR(append(slices.Delete(slices.Clone(data), di, di+1), srow...)...)
			if got := m.g.ReconstructBlock(di, dbn); !sameImage(got, want) {
				m.t.Fatalf("step %d, after %s: ReconstructBlock(%d, %d) reads %d bytes unlike the shadow's %d", step, after, di, dbn, len(got), len(want))
			}
		}
		if row, ok := m.g.rows[dbn]; ok && !m.busy(dbn) && sameRow(bytesOf(row), data) {
			m.t.Fatalf("step %d, after %s: stripe %d keeps an explicit row its data drives hold, with no write in flight", step, after, dbn)
		}
	}
	if len(m.writing) == 0 {
		if err := m.g.CheckRows(); err != nil {
			m.t.Fatalf("step %d, after %s: %v", step, after, err)
		}
	}
}

// TestDerivedParityMatchesRows runs seeded histories on a group — full,
// partial and short stripe writes, some overlapping in flight, a third of
// all write I/Os delayed so that data and parity land in either order, torn
// crashes and forgets — against a shadow of the rule before derived parity,
// which keeps every landed row. After every event VerifyStripe and
// ReconstructBlock must read as the shadow's, byte for byte, and an explicit
// row may exist only for a stripe with a write in flight or whose row is not
// its data.
func TestDerivedParityMatchesRows(t *testing.T) {
	var total rowModel
	for seed := range int64(4) {
		rng := rand.New(rand.NewSource(100 + seed))
		s := sim.New(2, 1)
		m := &rowModel{t: t, rng: rng, s: s, g: NewGroup(s, 0, 4, 8, storage.SSD), inj: &delayFaults{tornFaults{rng: rng}}}
		m.shadow = make([][][]byte, m.g.Depth())
		for di := range m.g.DataDrives() {
			m.g.Drive(di).SetInjector(m.inj)
		}
		m.g.ParityDrive().SetInjector(m.inj)
		for step := range 300 {
			switch a := rng.Intn(12); {
			case a < 5:
				m.write()
			case a < 10:
				for range 1 + rng.Intn(12) {
					m.event(step)
				}
			case a == 10:
				m.crash(step)
				for m.event(step) { // the dropped I/Os' stale completions
				}
			default:
				for range 1 + rng.Intn(3) {
					m.forget(step)
				}
			}
		}
		for m.event(300) {
		}
		if err := m.g.CheckRows(); err != nil {
			t.Fatal(err)
		}
		for i, n := range m.kinds {
			total.kinds[i] += n
		}
		total.overlaps += m.overlaps
		total.dataFirst += m.dataFirst
		total.parityFirst += m.parityFirst
		total.forgets += m.forgets
		total.refused += m.refused
		total.holes += m.holes
		total.events += m.events
	}
	t.Logf("%v full/partial/short stripes, %d overlapping a write in flight, %d parity landings after the data and %d before, "+
		"%d forgets, %d refused, %d write-hole rows after crashes, %d events checked",
		total.kinds, total.overlaps, total.dataFirst, total.parityFirst, total.forgets, total.refused, total.holes, total.events)
	if slices.Contains(total.kinds[:], 0) || total.overlaps == 0 || total.dataFirst == 0 || total.parityFirst == 0 ||
		total.forgets == 0 || total.refused == 0 || total.holes == 0 {
		t.Fatal("the histories did not cover every kind of write, overlaps, both landing orders, forgets and the write hole")
	}
}

// released is an Images that records what comes back.
type released [][]byte

func (r *released) Release(arr []byte) { *r = append(*r, arr) }

// TestMediaOnlyImagesGoBack: a media-only image — its DBN marked — goes back
// to its owner, as its size class's whole array, once its data drive and its
// parity row have both let go of it: when a write that displaced it has
// landed, parity included, or at Forget. No other image does.
func TestMediaOnlyImagesGoBack(t *testing.T) {
	s, g := newTestGroup(2)
	im := &released{}
	g.SetImages(im)
	old := make([][]storage.WriteReq, 4)
	for di := range old {
		// Drive 0's image is written marked; drive 1's is marked once it
		// has landed, as a buffer leaving its array marks it.
		old[di] = []storage.WriteReq{{DBN: 5, Data: fill(byte(di + 1)), MediaOnly: di == 0}}
	}
	g.Write(old, 0, nil)
	s.Run(sim.Time(100 * sim.Millisecond))
	displaced, forgotten, shared := old[0][0].Data, old[1][0].Data, old[2][0].Data
	if !g.Drive(1).Mark(5, forgotten) || !g.Drive(0).MediaOnly(5) || g.Drive(2).MediaOnly(5) {
		t.Fatal("the marks did not land with the write, or Mark refused a DBN's own array")
	}

	// A partial-stripe write over drives 0 and 2: the row keeps drive 1's
	// image, which stays on its drive too.
	over := make([][]storage.WriteReq, 4)
	over[0] = []storage.WriteReq{{DBN: 5, Data: fill(0xE0)}}
	over[2] = []storage.WriteReq{{DBN: 5, Data: fill(0xE2)}}
	landed := false
	g.Write(over, 0, func() { landed = true })
	if len(*im) != 0 {
		t.Fatal("an image went back before the write that displaced it landed")
	}
	s.Run(sim.Time(200 * sim.Millisecond))
	if !landed || len(*im) != 1 || !sameArray((*im)[0], displaced) {
		t.Fatalf("after the write landed: %d images back, want the displaced one", len(*im))
	}
	if g.Drive(0).MediaOnly(5) {
		t.Fatal("the mark stayed with the DBN after a write displaced its image")
	}
	if !g.VerifyStripe(5) || !bytes.Equal(shared, fill(3)) {
		t.Fatal("the stripe's parity or an unmarked displaced image changed")
	}
	if !g.Forget(1, 5) || len(*im) != 2 || !sameArray((*im)[1], forgotten) || g.Drive(1).MediaOnly(5) {
		t.Fatalf("after Forget: %d images back, want the forgotten one too", len(*im))
	}
	if !g.Forget(0, 5) || len(*im) != 2 {
		t.Fatal("Forget of an unmarked image gave it back")
	}
}

// TestWarmWriteAllocatesNoRows: a warm Write of fresh full stripes recycles
// its rows, its record and its scratch, so it builds none of them whether
// it covers 4 stripes or 12, allocates no object per stripe and no parity
// array. A row cloned per stripe would be an object each, and an eager
// parity a 4 KiB array each. What a stripe does allocate is its data
// drives' image tables growing, a 24-byte handle for each byte image
// landing on a DBN that never held one, made a page at a time (block's
// TestByteImageHandles pins that growth).
func TestWarmWriteAllocatesNoRows(t *testing.T) {
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
	built := func() uint64 {
		st := g.Stats()
		return g.rowStats.New + st.WritePool.New + st.ScratchPool.New
	}
	const runs = 50
	measure := func(k int) (made uint64, objects, perStripe float64) {
		w := writer(k)
		w()
		before := built()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for range runs {
			w()
		}
		runtime.ReadMemStats(&m1)
		if g.Stats().Rows != 0 {
			t.Fatalf("%d explicit rows left after full-stripe writes landed, want 0", g.Stats().Rows)
		}
		stripes := float64(runs * k)
		return built() - before, float64(m1.Mallocs-m0.Mallocs) / stripes, float64(m1.TotalAlloc-m0.TotalAlloc) / stripes
	}
	for _, k := range []int{4, 12} {
		made, objects, perStripe := measure(k)
		t.Logf("50 writes of %d fresh stripes build %d rows, records or scratch; %.3f objects and %.0f bytes per stripe", k, made, objects, perStripe)
		if objects >= 0.25 {
			t.Fatalf("a fresh full stripe of %d allocates %.3f objects, want under one per four stripes", k, objects)
		}
		if made != 0 {
			t.Fatalf("50 warm writes of %d fresh stripes build %d rows, records or scratch, want 0", k, made)
		}
		if perStripe >= block.Size/4 {
			t.Fatalf("a fresh full stripe of %d allocates %.0f bytes, want under a quarter block", k, perStripe)
		}
	}
}

// BenchmarkGroupWrite is a Group.Write of 64 full stripes of 4 KiB images
// across 4 data drives, run to completion (five drive I/Os and their
// completion events): the per-layer raid.write_* numbers, per block written.
// Warm, it allocates nothing: each stripe's pinned and carried rows, the
// write's record and scratch all come back to the group.
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
