package storage

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"wafl/internal/block"
	"wafl/internal/sim"
)

// tornInjector tears every in-flight write at a random prefix and records
// each prefix it chose, in the order DropInFlight asked.
type tornInjector struct {
	stubInjector
	rng      *rand.Rand
	prefixes []int
}

func (in *tornInjector) CrashPrefix(_ string, n int) int {
	p := in.rng.IntN(n + 1)
	in.prefixes = append(in.prefixes, p)
	return p
}

// mediaModel drives one device through seeded writes, forgets and torn
// crashes, and keeps the reference of what each DBN must hold.
type mediaModel[E Elem] struct {
	t     *testing.T
	s     *sim.Scheduler
	d     *Device[E]
	inj   *tornInjector
	want  map[block.DBN][]E
	image func() []E
	// forgotten counts the images Forget dropped, and their length.
	forgotten, forgottenLen uint64
}

func (m *mediaModel[E]) reqs() []Req[E] {
	reqs := make([]Req[E], 1+m.inj.rng.IntN(4))
	for i := range reqs {
		reqs[i] = Req[E]{DBN: block.DBN(m.inj.rng.IntN(int(m.d.Blocks()))), Data: m.image()}
	}
	return reqs
}

func (m *mediaModel[E]) land(reqs []Req[E]) {
	for _, r := range reqs {
		m.want[r.DBN] = r.Data
	}
}

// step takes one random action: a completed write, a forget, a crash with
// one to three writes in flight, or a place — an image, or nil a third of
// the time — which lands at once and counts as no forget.
func (m *mediaModel[E]) step() {
	rng := m.inj.rng
	switch rng.IntN(4) {
	case 0:
		reqs := m.reqs()
		m.d.Write(reqs, nil)
		m.s.RunFor(sim.Millisecond)
		m.land(reqs)
	case 1:
		dbn := block.DBN(rng.IntN(int(m.d.Blocks())))
		if img := m.want[dbn]; img != nil {
			m.forgotten++
			m.forgottenLen += uint64(len(img))
		}
		m.d.Forget(dbn)
		delete(m.want, dbn)
	case 2:
		var writes [][]Req[E]
		for range 1 + rng.IntN(3) {
			reqs := m.reqs()
			m.d.Write(reqs, nil)
			writes = append(writes, reqs)
		}
		m.inj.prefixes = m.inj.prefixes[:0]
		m.d.DropInFlight()
		for i, reqs := range writes {
			m.land(reqs[:m.inj.prefixes[i]])
		}
		m.s.RunFor(sim.Millisecond) // the dropped writes' stale completions
	case 3:
		dbn := block.DBN(rng.IntN(int(m.d.Blocks())))
		var img []E
		if rng.IntN(3) > 0 {
			img = m.image()
		}
		m.d.Place(dbn, img)
		m.want[dbn] = img
	}
}

// sameImage reports whether got is want itself: equally nil, equally long,
// and, when not empty, starting at the same element.
func sameImage[E Elem](got, want []E) bool {
	return (got == nil) == (want == nil) && len(got) == len(want) && (len(got) == 0 || &got[0] == &want[0])
}

// check compares Peek, PeekChecked and Read of every DBN with the reference.
func (m *mediaModel[E]) check(step int) {
	m.t.Helper()
	dbns := make([]block.DBN, m.d.Blocks())
	for i := range dbns {
		dbns[i] = block.DBN(i)
		want := m.want[dbns[i]]
		checked, ok := m.d.PeekChecked(dbns[i])
		if !sameImage(m.d.Peek(dbns[i]), want) || !ok || !sameImage(checked, want) {
			m.t.Fatalf("step %d: dbn %d peeks (nil %v, len %d) / (nil %v, len %d), want (nil %v, len %d) of the array written",
				step, i, m.d.Peek(dbns[i]) == nil, len(m.d.Peek(dbns[i])), checked == nil, len(checked), want == nil, len(want))
		}
	}
	read := false
	m.d.Read(dbns, func(got [][]E) {
		read = true
		for i, img := range got {
			if !sameImage(img, m.want[dbns[i]]) {
				m.t.Fatalf("step %d: dbn %d reads (nil %v, len %d), want the array written", step, i, img == nil, len(img))
			}
		}
	})
	m.s.RunFor(sim.Second)
	if !read {
		m.t.Fatalf("step %d: the read did not complete", step)
	}
	if st := m.d.Stats(); st.Forgotten != m.forgotten || st.ForgottenBytes != m.forgottenLen {
		m.t.Fatalf("step %d: forgot %d images of %d, want %d of %d", step, st.Forgotten, st.ForgottenBytes, m.forgotten, m.forgottenLen)
	}
}

func runMediaModel[E Elem](t *testing.T, seed uint64, image func(*rand.Rand) []E) {
	s := sim.New(1, 1)
	m := &mediaModel[E]{t: t, s: s, d: NewDevice[E](s, "d", SSD, 32), want: map[block.DBN][]E{}}
	m.inj = &tornInjector{rng: rand.New(rand.NewPCG(seed, 0))}
	m.image = func() []E { return image(m.inj.rng) }
	m.d.SetInjector(m.inj)
	for step := range 400 {
		m.step()
		m.check(step)
	}
}

// blockImage is a nil image, a non-nil empty one, a trimmed one or a full
// block.
func blockImage(rng *rand.Rand) []byte {
	switch rng.IntN(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		return block.New()[:1+rng.IntN(block.Size-1)]
	}
	return block.New()
}

// TestMediaTableKeepsImages: through seeded writes, places, forgets and torn
// crashes, every DBN of a data drive and of a row device reads back the very
// image last landed or placed there — nil as nil, empty as non-nil empty,
// trimmed at its length, and the media's array, never a copy.
func TestMediaTableKeepsImages(t *testing.T) {
	for seed := range uint64(4) {
		runMediaModel(t, seed, blockImage)
		runMediaModel(t, seed, func(rng *rand.Rand) [][]byte {
			if rng.IntN(6) == 0 {
				return nil
			}
			row := make([][]byte, rng.IntN(5))
			for i := range row {
				row[i] = blockImage(rng)
			}
			return row
		})
	}
}

// TestMediaTableBudget: a drive's media table costs 10 bytes a DBN — a
// pointer and a 16-bit length — not a 24-byte slice header.
func TestMediaTableBudget(t *testing.T) {
	const nblocks = 1 << 16
	s := sim.New(1, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDrive(s, "d", SSD, nblocks)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if perDBN := float64(after.HeapAlloc-before.HeapAlloc) / nblocks; perDBN > 10.5 {
		t.Fatalf("a drive of %d DBNs retains %.2f heap bytes a DBN, want <= 10.5", nblocks, perDBN)
	}
}
