package nsmodel

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"wafl/internal/sim"
)

// fake is a tiny in-memory file system behind both interfaces: as Ops it is
// driven in lock-step with the model, as System it is probed by Verify — and
// a test reaches into it to make it misbehave. A block is good (data of the
// expected content), bad (other content) or absent (a hole).
type (
	blocks  map[FBN]byte
	files   map[uint64]blocks
	fakeVol struct {
		live    files
		snaps   map[uint64]files
		bound   bool // a bound clone
		pending bool // a clone whose bind has not materialized
	}
	fake struct {
		vols     map[int]*fakeVol
		nextIno  uint64
		nextSnap uint64
	}
)

const (
	good = 1
	bad  = 2
)

func (fs files) clone() files {
	out := files{}
	for ino, b := range fs {
		out[ino] = maps.Clone(b)
	}
	return out
}

func newFake() *fake {
	return &fake{vols: map[int]*fakeVol{0: {live: files{}, snaps: map[uint64]files{}}}, nextIno: 64, nextSnap: 1}
}

func (f *fake) Alive() bool { return true }
func (f *fake) Write(vol int, ino uint64, fbn FBN, n int) sim.Duration {
	for b := fbn; b < fbn+FBN(n); b++ {
		f.vols[vol].live[ino][b] = good
	}
	return 0
}
func (f *fake) WriteBulk(vol int, ino uint64, fbn FBN, n int) (sim.Duration, bool) {
	return f.Write(vol, ino, fbn, n), true
}
func (f *fake) Create(vol int, _ uint64) uint64 {
	f.nextIno++
	f.vols[vol].live[f.nextIno] = blocks{}
	return f.nextIno
}
func (f *fake) Delete(vol int, ino uint64) bool {
	_, ok := f.vols[vol].live[ino]
	delete(f.vols[vol].live, ino)
	return ok
}
func (f *fake) Getattr(int, uint64) sim.Duration { return 0 }
func (f *fake) SnapCreate(vol int) uint64 {
	f.nextSnap++
	f.vols[vol].snaps[f.nextSnap] = f.vols[vol].live.clone()
	return f.nextSnap
}
func (f *fake) SnapDelete(vol int, id uint64) bool {
	_, ok := f.vols[vol].snaps[id]
	delete(f.vols[vol].snaps, id)
	return ok
}
func (f *fake) SnapRestore(vol int, id uint64) bool {
	im, ok := f.vols[vol].snaps[id]
	if ok {
		f.vols[vol].live = im.clone()
	}
	return ok
}
func (f *fake) CloneCreate(vol int, id uint64) (int, bool) {
	im, ok := f.vols[vol].snaps[id]
	if !ok {
		return -1, false
	}
	cv := len(f.vols) + 7
	f.vols[cv] = &fakeVol{live: im.clone(), snaps: map[uint64]files{}, bound: true}
	return cv, true
}
func (f *fake) CloneSplit(vol int) bool { return f.vols[vol].bound }

func (f *fake) FileExists(vol int, ino uint64) bool { return f.vols[vol].live[ino] != nil }
func (f *fake) VerifyRead(vol int, ino uint64, fbn FBN) []byte {
	if f.vols[vol].live[ino][fbn] == 0 {
		return nil
	}
	return []byte{f.vols[vol].live[ino][fbn]}
}
func (f *fake) VerifyAgainst(vol int, ino uint64, fbn FBN) error {
	if got := f.vols[vol].live[ino][fbn]; got != good {
		return fmt.Errorf("vol %d ino %d fbn %d: got %d, want data", vol, ino, fbn, got)
	}
	return nil
}
func (f *fake) SnapshotExists(vol int, id uint64) bool { return f.vols[vol].snaps[id] != nil }
func (f *fake) SnapVerifyAgainst(vol int, id, ino uint64, fbn FBN, expectData bool) error {
	b, ok := f.vols[vol].snaps[id][ino]
	if want := map[bool]byte{true: good}[expectData]; !ok || b[fbn] != want {
		return fmt.Errorf("vol %d snap %d ino %d fbn %d: got %d (file %v), want %d", vol, id, ino, fbn, b[fbn], ok, want)
	}
	return nil
}
func (f *fake) CloneVolumes() (out []int) {
	for _, vol := range sortedKeys(f.vols) {
		if f.vols[vol].bound || f.vols[vol].pending {
			out = append(out, vol)
		}
	}
	return out
}
func (f *fake) CloneBound(vol int) bool     { return f.vols[vol].bound }
func (f *fake) CloneSplitDone(vol int) bool { return !f.vols[vol].bound && !f.vols[vol].pending }

// world is a model and a fake that agree: volume 0 holds file ino (span 8)
// with blocks 0-3 written, snapshot snap of that, then block 4 written.
type world struct {
	m         *Model
	f         *fake
	c         *Client
	ino, snap uint64
	flying    int // clients with an operation in flight
}

func newWorld() *world {
	w := &world{m: New(), f: newFake()}
	w.c = w.m.Client(0, 1, []int{0})
	w.do(Op{Kind: Create, N: 8})
	w.ino = w.f.nextIno
	w.do(Op{Kind: Write, Ino: w.ino, N: 4})
	w.do(Op{Kind: SnapCreate})
	w.snap = w.f.nextSnap
	w.do(Op{Kind: Write, Ino: w.ino, FBN: 4, N: 1})
	return w
}

// do performs op on the fake and acknowledges it to the model; begin only
// tells the model it is in flight (on a client of its own, whose ID it
// returns); only performs it on the fake behind the model's back.
func (w *world) do(op Op) { w.c.do(w.f, op) }
func (w *world) begin(op Op) int {
	w.flying++
	w.m.Begin(w.flying, op)
	return w.flying
}
func (w *world) only(op Op) { New().Client(0, 1, nil).do(w.f, op) }

func (w *world) file(vol int) blocks { return w.f.vols[vol].live[w.ino] }

// on returns op naming the world's file or, a snapshot operation, snapshot.
func on(w *world, op Op) Op {
	if op.Ino = w.snap; op.Kind.fileOp() {
		op.Ino = w.ino
	}
	return op
}

// TestModelHasTeeth: for each check the model makes, a system misbehaving
// that way (or a model told that one false fact) fails Verify, and the twin
// in which an in-flight operation explains the same kind of state passes.
func TestModelHasTeeth(t *testing.T) {
	write := func(vol int, fbn FBN, n int) Op { return Op{Kind: Write, Vol: vol, FBN: fbn, N: n} }
	// overlap takes a snapshot whose create overlaps an acknowledged write of
	// block 6, frozen before or after that write.
	overlap := func(w *world, before bool) {
		c := w.begin(Op{Kind: SnapCreate})
		var id uint64
		if before {
			id = w.f.SnapCreate(0)
		}
		w.do(on(w, write(0, 6, 1)))
		if !before {
			id = w.f.SnapCreate(0)
		}
		w.m.Ack(c, id, true)
	}
	clone := func(w *world) int {
		w.do(on(w, Op{Kind: CloneCreate}))
		return w.c.clone
	}
	cases := []struct {
		name, want string
		fail, pass func(w *world)
	}{
		{"acked create lost", "lost",
			func(w *world) { w.do(Op{Kind: Create, N: 8}); delete(w.f.vols[0].live, w.f.nextIno) },
			func(w *world) { w.begin(Op{Kind: Create, N: 8}) }},
		{"acked delete resurrected", "want it deleted",
			func(w *world) { b := w.file(0); w.do(on(w, Op{Kind: Delete})); w.f.vols[0].live[w.ino] = b },
			func(w *world) { w.begin(on(w, Op{Kind: Delete})) }},
		{"acked write lost", "fbn 7",
			func(w *world) { w.do(on(w, write(0, 6, 2))); delete(w.file(0), 7) },
			func(w *world) { w.begin(on(w, write(0, 6, 2))); w.only(on(w, write(0, 6, 1))) }},
		{"acked snapshot lost", "snapshot 3 lost",
			func(w *world) { w.do(Op{Kind: SnapCreate}); delete(w.f.vols[0].snaps, 3) },
			func(w *world) { w.begin(Op{Kind: SnapCreate}) }},
		{"acked snapshot delete resurrected", "is back",
			func(w *world) {
				im := w.f.vols[0].snaps[w.snap]
				w.do(on(w, Op{Kind: SnapDelete}))
				w.f.vols[0].snaps[w.snap] = im
			},
			func(w *world) { w.begin(on(w, Op{Kind: SnapDelete})) }},
		{"snapshot image block wrong", "snap 2 ino 65 fbn 2",
			func(w *world) { w.f.vols[0].snaps[w.snap][w.ino][2] = bad },
			func(w *world) { overlap(w, true) }},
		{"snapshot image hole filled", "snap 2 ino 65 fbn 4",
			func(w *world) { w.f.vols[0].snaps[w.snap][w.ino][4] = good },
			func(w *world) { overlap(w, false) }},
		{"acked restore lost", "fbn 4: data, want hole",
			func(w *world) { w.do(on(w, Op{Kind: SnapRestore})); w.file(0)[4] = good },
			func(w *world) { w.begin(on(w, Op{Kind: SnapRestore})) }},
		{"restore applied but never issued", "fbn 4",
			func(w *world) { w.only(on(w, Op{Kind: SnapRestore})) },
			func(w *world) { w.begin(on(w, Op{Kind: SnapRestore})); w.only(on(w, Op{Kind: SnapRestore})) }},
		{"torn restore", "none of the 2 images",
			func(w *world) {
				w.do(on(w, write(0, 5, 2)))
				w.begin(on(w, Op{Kind: SnapRestore}))
				delete(w.file(0), 5)
			},
			func(w *world) {
				w.do(on(w, write(0, 5, 2)))
				w.begin(on(w, Op{Kind: SnapRestore}))
				w.only(on(w, Op{Kind: SnapRestore}))
			}},
		{"acked post-restore write lost", "fbn 5",
			func(w *world) { w.do(on(w, Op{Kind: SnapRestore})); w.do(on(w, write(0, 5, 1))); delete(w.file(0), 5) },
			func(w *world) { w.do(on(w, Op{Kind: SnapRestore})); w.begin(on(w, write(0, 5, 1))) }},
		{"acked clone write lost", "fbn 6",
			func(w *world) { cv := clone(w); w.do(on(w, write(cv, 6, 1))); delete(w.file(cv), 6) },
			func(w *world) { cv := clone(w); w.begin(on(w, write(cv, 6, 1))) }},
		{"clone leaks parent churn", "fbn 4: data, want hole",
			func(w *world) { w.file(clone(w))[4] = good },
			func(w *world) { cv := clone(w); w.begin(on(w, write(cv, 4, 1))); w.only(on(w, write(cv, 4, 1))) }},
		{"acked clone lost", "neither bound nor split",
			func(w *world) { w.f.vols[clone(w)].bound, w.f.vols[w.c.clone].pending = false, true },
			func(w *world) { w.f.vols[clone(w)].bound = false }}, // (split)
		{"unacked clone surfaced unbound after settling", "still unbound",
			func(w *world) { w.begin(on(w, Op{Kind: CloneCreate})); w.f.vols[9] = &fakeVol{pending: true} },
			func(w *world) { w.begin(on(w, Op{Kind: CloneCreate})); w.only(on(w, Op{Kind: CloneCreate})) }},
		{"unacked clone serves another image", "fbn 4",
			func(w *world) {
				w.begin(on(w, Op{Kind: CloneCreate}))
				w.only(on(w, Op{Kind: CloneCreate}))
				w.file(8)[4] = good
			},
			func(w *world) {}},
		{"clone nobody created", "no operation created",
			func(w *world) { w.only(on(w, Op{Kind: CloneCreate})) },
			func(w *world) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld()
			tc.pass(w)
			if errs := w.m.Verify(w.f, true); len(errs) > 0 {
				t.Errorf("in-flight twin fails: %v\n%s", errs, w.m.Trail())
			}
			w = newWorld()
			tc.fail(w)
			errs := strings.Join(w.m.Verify(w.f, true), "\n")
			if !strings.Contains(errs, tc.want) {
				t.Errorf("misbehaving system: Verify = %q, want a failure naming %q", errs, tc.want)
			}
		})
	}
}

// TestVerifyUnsettled: until the system has settled, a volume with a
// SnapRestore in flight is in transit — replay has discarded what the restore
// supersedes, the image arrives with the next CP — and is not compared; a
// clone whose create is in flight may still be pending.
func TestVerifyUnsettled(t *testing.T) {
	w := newWorld()
	w.begin(Op{Kind: SnapRestore, Ino: w.snap})
	w.begin(Op{Kind: CloneCreate, Ino: w.snap})
	delete(w.file(0), 1)
	w.f.vols[9] = &fakeVol{pending: true}
	if errs := w.m.Verify(w.f, false); len(errs) > 0 {
		t.Fatalf("unsettled: %v", errs)
	}
	if errs := w.m.Verify(w.f, true); len(errs) < 2 {
		t.Fatalf("settled: Verify = %v, want the torn volume and the unbound clone", errs)
	}
}

// TestGeneratorKeepsClear: a client never begins an operation on a volume
// another client's SnapRestore has in flight, nor a restore of a volume
// another client is busy on, nor touches a file another client is deleting;
// and the same seed draws the same history.
func TestGeneratorKeepsClear(t *testing.T) {
	history := func(seed int64, flying Op) (ops []Op) {
		w := newWorld()
		w.begin(on(w, flying))
		c := w.m.Client(9, seed, []int{0})
		for i := 0; i < 400; i++ {
			if op, ok := c.draw(AllKinds); ok {
				ops = append(ops, op)
				c.do(w.f, op)
			}
		}
		return ops
	}
	for _, op := range history(1, Op{Kind: SnapRestore}) {
		if op.Vol == 0 {
			t.Fatalf("%v begun on a volume with a SnapRestore in flight", op)
		}
	}
	busy := history(1, Op{Kind: Delete})
	if len(busy) < 100 {
		t.Fatalf("only %d of 400 draws went ahead beside an in-flight delete", len(busy))
	}
	for _, op := range busy {
		if op.Vol == 0 && (op.Kind == SnapRestore || op.Kind.fileOp() && op.Ino == 65) {
			t.Fatalf("%v begun beside another client's delete of the file", op)
		}
	}
	if again := history(1, Op{Kind: Delete}); fmt.Sprint(again) != fmt.Sprint(busy) {
		t.Fatal("the same seed drew two different histories")
	}
	if other := history(2, Op{Kind: Delete}); fmt.Sprint(other) == fmt.Sprint(busy) {
		t.Fatal("two seeds drew the same history")
	}
}
