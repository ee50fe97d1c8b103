package storage

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"wafl/internal/block"
	"wafl/internal/sim"
)

// tornInjector tears every in-flight write at a random prefix — one block
// past its end now and then, which the drive clamps — and records each
// prefix it chose, in the order DropInFlight asked.
type tornInjector struct {
	stubInjector
	rng      *rand.Rand
	prefixes []int
}

func (in *tornInjector) CrashPrefix(_ string, n int) int {
	p := in.rng.IntN(n + 2)
	in.prefixes = append(in.prefixes, p)
	return p
}

// mediaModel drives one drive through seeded writes, forgets, marks and torn
// crashes, and keeps the reference of what each DBN must hold: its image,
// and for a marked one the length of the array Owned must return.
type mediaModel struct {
	t      *testing.T
	s      *sim.Scheduler
	d      *Drive
	inj    *tornInjector
	want   map[block.DBN]block.Image
	marked map[block.DBN]int
	// forgotten counts the images Forget dropped, and their length.
	forgotten, forgottenLen uint64
}

func (m *mediaModel) reqs() []WriteReq {
	reqs := make([]WriteReq, 1+m.inj.rng.IntN(4))
	for i := range reqs {
		reqs[i] = WriteReq{DBN: block.DBN(m.inj.rng.IntN(int(m.d.Blocks()))), MediaOnly: m.inj.rng.IntN(2) == 0}
		if m.inj.rng.IntN(4) == 0 {
			reqs[i].Name = block.NameOf(m.inj.rng.Uint64(), block.FBN(m.inj.rng.Uint64()), 0, 1+m.inj.rng.IntN(block.Size))
		} else {
			reqs[i].Data = blockImage(m.inj.rng)
		}
	}
	return reqs
}

func (m *mediaModel) land(reqs []WriteReq) {
	for _, r := range reqs {
		m.want[r.DBN] = r.image()
		delete(m.marked, r.DBN)
		if r.MediaOnly && r.Name == 0 && canMark(r.Data) {
			m.marked[r.DBN] = wholeLen(r.Data)
		}
	}
}

// canMark reports whether byte image img may be marked media-only: 1 to
// block.Size bytes, its array at least its size class long.
func canMark(img []byte) bool {
	if len(img) == 0 || len(img) > block.Size {
		return false
	}
	_, c := block.Class(len(img))
	return cap(img) >= c
}

// wholeLen is the length of the array Owned returns for a marked image
// whose array is img's: the largest size class its capacity reaches.
func wholeLen(img []byte) int {
	c, size := block.Class(min(cap(img), block.Size))
	if size > cap(img) {
		c--
	}
	return block.ClassCap(c)
}

// step takes one random action: a completed write, a forget, or a crash with
// one to three writes in flight, which must report the prefix of each that
// landed, as the injector chose it and clamped to the write.
func (m *mediaModel) step(step int) {
	rng := m.inj.rng
	switch rng.IntN(5) {
	case 3:
		// A buffer lets go of the array a DBN holds (it marks), or of
		// another one (it does not).
		dbn := block.DBN(rng.IntN(int(m.d.Blocks())))
		img := m.want[dbn].Bytes
		arr := img[:cap(img)]
		if rng.IntN(4) == 0 {
			arr = block.New()
		}
		want := canMark(img) && len(arr) > 0 && &arr[0] == &img[0]
		if got := m.d.Mark(dbn, arr); got != want {
			m.t.Fatalf("step %d: Mark of dbn %d (len %d) = %v, want %v", step, dbn, len(img), got, want)
		}
		if want {
			m.marked[dbn] = wholeLen(img)
		}
	case 4:
		if rng.IntN(8) == 0 {
			m.d.ClearMarks()
			clear(m.marked)
		}
	case 0:
		reqs := m.reqs()
		m.d.Write(reqs, nil)
		m.s.RunFor(sim.Millisecond)
		m.land(reqs)
	case 1:
		dbn := block.DBN(rng.IntN(int(m.d.Blocks())))
		if img := m.want[dbn]; !img.IsNil() {
			m.forgotten++
			m.forgottenLen += uint64(img.Len())
		}
		m.d.Forget(dbn)
		delete(m.want, dbn)
		delete(m.marked, dbn)
	case 2:
		var writes [][]WriteReq
		for range 1 + rng.IntN(3) {
			reqs := m.reqs()
			m.d.Write(reqs, nil)
			writes = append(writes, reqs)
		}
		m.inj.prefixes = m.inj.prefixes[:0]
		landed := m.d.DropInFlight()
		want := make([]int, len(writes))
		for i, reqs := range writes {
			want[i] = min(m.inj.prefixes[i], len(reqs))
			m.land(reqs[:want[i]])
		}
		if !slices.Equal(landed, want) {
			m.t.Fatalf("step %d: the crash reports prefixes %v landed, the injector chose %v", step, landed, want)
		}
		m.s.RunFor(sim.Millisecond) // the dropped writes' stale completions
	}
}

// sameImage reports whether got is want itself: the same name, or equally
// nil, equally long and, when not empty, starting at the same byte.
func sameImage(got, want block.Image) bool {
	if got.Name != 0 || want.Name != 0 {
		return got.Name == want.Name && got.Bytes == nil
	}
	g, w := got.Bytes, want.Bytes
	return (g == nil) == (w == nil) && len(g) == len(w) && (len(g) == 0 || &g[0] == &w[0])
}

// check compares Image, PeekChecked and Read of every DBN with the
// reference.
func (m *mediaModel) check(step int) {
	m.t.Helper()
	dbns := make([]block.DBN, m.d.Blocks())
	for i := range dbns {
		dbns[i] = block.DBN(i)
		want := m.want[dbns[i]]
		checked, ok := m.d.PeekChecked(dbns[i])
		if got := m.d.Image(dbns[i]); !sameImage(got, want) || !ok || !sameImage(checked, want) {
			m.t.Fatalf("step %d: dbn %d holds (nil %v, len %d) / (nil %v, len %d), want (nil %v, len %d) of the image written",
				step, i, got.IsNil(), got.Len(), checked.IsNil(), checked.Len(), want.IsNil(), want.Len())
		}

	}
	for _, dbn := range dbns {
		size, marked := m.marked[dbn]
		if owned := m.d.Owned(dbn); m.d.MediaOnly(dbn) != marked || (owned != nil) != marked ||
			marked && (len(owned) != size || &owned[0] != &m.want[dbn].Bytes[0]) {
			m.t.Fatalf("step %d: dbn %d marked %v, owns %d bytes; want marked %v, the image's array at %d bytes",
				step, dbn, m.d.MediaOnly(dbn), len(owned), marked, size)
		}
	}
	read := false
	m.d.Read(dbns, func(got []block.Image) {
		read = true
		for i, img := range got {
			if !sameImage(img, m.want[dbns[i]]) {
				m.t.Fatalf("step %d: dbn %d reads (nil %v, len %d), want the image written", step, i, img.IsNil(), img.Len())
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

// blockImage is a nil image, a non-nil empty one, a trimmed one in an array
// of its own length or of some size class at least as long, or a full block.
func blockImage(rng *rand.Rand) []byte {
	switch rng.IntN(5) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		n := 1 + rng.IntN(block.Size-1)
		_, c := block.Class(n + rng.IntN(block.Size-n+1))
		return make([]byte, n, c) // an array up to a few classes past its image
	case 3:
		return make([]byte, 1+rng.IntN(block.Size-1)) // too short to mark, mostly
	}
	return block.New()
}

// TestMediaTableKeepsImages: through seeded writes, forgets, marks and torn
// crashes, every DBN of a drive reads back the very image last landed there
// — a name as that name, nil as nil, empty as non-nil empty, trimmed at its
// length, and the media's array, never a copy — and each crash reports the
// prefix of each dropped write that landed. A DBN is marked media-only from a marked
// write's landing or a Mark of its own array until the next landing, Forget
// or ClearMarks, and Owned hands back its array at the capacity recorded.
func TestMediaTableKeepsImages(t *testing.T) {
	for seed := range uint64(4) {
		s := sim.New(1, 1)
		m := &mediaModel{t: t, s: s, d: NewDrive(s, "d", SSD, 32), want: map[block.DBN]block.Image{}, marked: map[block.DBN]int{}}
		m.inj = &tornInjector{rng: rand.New(rand.NewPCG(seed, 0))}
		m.d.SetInjector(m.inj)
		for step := range 400 {
			m.step(step)
			m.check(step)
		}
	}
}

// TestMediaTableBudget: a drive's media table costs 8 bytes a DBN — one
// word, a name or a handle to a byte image — not a 24-byte slice header;
// and a parity drive, whose writes carry no image, has no table at all.
func TestMediaTableBudget(t *testing.T) {
	const nblocks = 1 << 16
	retained := func(newDrive func(*sim.Scheduler, string, Profile, block.DBN) *Drive) float64 {
		s := sim.New(1, 1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d := newDrive(s, "d", SSD, nblocks)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(d)
		return float64(after.HeapAlloc-before.HeapAlloc) / nblocks
	}
	if perDBN := retained(NewDrive); perDBN > 10.5 {
		t.Fatalf("a drive of %d DBNs retains %.2f heap bytes a DBN, want <= 10.5", nblocks, perDBN)
	}
	if perDBN := retained(NewParityDrive); perDBN >= 1 {
		t.Fatalf("a parity drive of %d DBNs retains %.2f heap bytes a DBN, want < 1", nblocks, perDBN)
	}
}
