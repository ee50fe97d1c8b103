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

// mediaModel drives one drive through seeded writes, forgets and torn
// crashes, and keeps the reference of what each DBN must hold.
type mediaModel struct {
	t    *testing.T
	s    *sim.Scheduler
	d    *Drive
	inj  *tornInjector
	want map[block.DBN][]byte
	// forgotten counts the images Forget dropped, and their length.
	forgotten, forgottenLen uint64
}

func (m *mediaModel) reqs() []WriteReq {
	reqs := make([]WriteReq, 1+m.inj.rng.IntN(4))
	for i := range reqs {
		reqs[i] = WriteReq{DBN: block.DBN(m.inj.rng.IntN(int(m.d.Blocks()))), Data: blockImage(m.inj.rng)}
	}
	return reqs
}

func (m *mediaModel) land(reqs []WriteReq) {
	for _, r := range reqs {
		m.want[r.DBN] = r.Data
	}
}

// step takes one random action: a completed write, a forget, or a crash with
// one to three writes in flight, which must report the prefix of each that
// landed, as the injector chose it and clamped to the write.
func (m *mediaModel) step(step int) {
	rng := m.inj.rng
	switch rng.IntN(3) {
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

// sameImage reports whether got is want itself: equally nil, equally long,
// and, when not empty, starting at the same byte.
func sameImage(got, want []byte) bool {
	return (got == nil) == (want == nil) && len(got) == len(want) && (len(got) == 0 || &got[0] == &want[0])
}

// check compares Peek, PeekChecked and Read of every DBN with the reference.
func (m *mediaModel) check(step int) {
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
	m.d.Read(dbns, func(got [][]byte) {
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

// TestMediaTableKeepsImages: through seeded writes, forgets and torn crashes,
// every DBN of a drive reads back the very image last landed there — nil as
// nil, empty as non-nil empty, trimmed at its length, and the media's array,
// never a copy — and each crash reports the prefix of each dropped write that
// landed.
func TestMediaTableKeepsImages(t *testing.T) {
	for seed := range uint64(4) {
		s := sim.New(1, 1)
		m := &mediaModel{t: t, s: s, d: NewDrive(s, "d", SSD, 32), want: map[block.DBN][]byte{}}
		m.inj = &tornInjector{rng: rand.New(rand.NewPCG(seed, 0))}
		m.d.SetInjector(m.inj)
		for step := range 400 {
			m.step(step)
			m.check(step)
		}
	}
}

// TestMediaTableBudget: a drive's media table costs 10 bytes a DBN — a
// pointer and a 16-bit length — not a 24-byte slice header; and a parity
// drive, whose writes carry no image, has no table at all.
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
