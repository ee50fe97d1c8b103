package bitmap

import (
	"testing"
	"testing/quick"

	"wafl/internal/block"
	"wafl/internal/fs"
)

func newMap(nbits uint64) *Activemap {
	f := fs.NewFile(1, 2)
	return New(f, nbits)
}

func TestSetClearIsSet(t *testing.T) {
	a := newMap(100000)
	if a.Free() != 100000 {
		t.Fatalf("free = %d", a.Free())
	}
	a.Set(5)
	a.Set(99999)
	if !a.IsSet(5) || !a.IsSet(99999) || a.IsSet(6) {
		t.Fatal("IsSet wrong")
	}
	if a.Free() != 99998 || a.Used() != 2 {
		t.Fatalf("free=%d used=%d", a.Free(), a.Used())
	}
	a.Clear(5)
	if a.IsSet(5) || a.Free() != 99999 {
		t.Fatal("clear failed")
	}
}

func TestDoubleAllocationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double allocation")
		}
	}()
	a := newMap(1000)
	a.Set(7)
	a.Set(7)
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	a := newMap(1000)
	a.Clear(7)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := newMap(1000)
	a.IsSet(1000)
}

func TestSetDirtiesMetafileBlockIntoCP(t *testing.T) {
	f := fs.NewFile(1, 2)
	a := New(f, 10*BitsPerBlock)
	a.Set(0)
	a.Set(BitsPerBlock + 5) // second metafile block
	if f.FrozenCount() != 2 {
		t.Fatalf("frozen metafile blocks = %d, want 2", f.FrozenCount())
	}
	a.Set(1) // same block as bit 0: no new dirty block
	if f.FrozenCount() != 2 {
		t.Fatalf("frozen metafile blocks = %d, want 2", f.FrozenCount())
	}
}

func TestFindFree(t *testing.T) {
	a := newMap(100000)
	for bn := uint64(0); bn < 100; bn++ {
		a.Set(bn)
	}
	a.Set(105)
	got, words := a.FindFree(nil, 0, 200, 10)
	want := []uint64{100, 101, 102, 103, 104, 106, 107, 108, 109, 110}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if words == 0 {
		t.Fatal("scan work not reported")
	}
}

func TestFindFreeRespectsRangeBounds(t *testing.T) {
	a := newMap(100000)
	got, _ := a.FindFree(nil, 10, 14, 100)
	if len(got) != 4 || got[0] != 10 || got[3] != 13 {
		t.Fatalf("got %v", got)
	}
	// Start mid-word, end mid-word.
	got, _ = a.FindFree(nil, 67, 69, 100)
	if len(got) != 2 || got[0] != 67 || got[1] != 68 {
		t.Fatalf("got %v", got)
	}
}

func TestFindFreeAcrossMetafileBlocks(t *testing.T) {
	a := newMap(3 * BitsPerBlock)
	start := uint64(BitsPerBlock - 2)
	got, _ := a.FindFree(nil, start, start+5, 100)
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, bn := range got {
		if bn != start+uint64(i) {
			t.Fatalf("got %v", got)
		}
	}
}

func TestCountFree(t *testing.T) {
	a := newMap(2 * BitsPerBlock)
	for bn := uint64(100); bn < 200; bn++ {
		a.Set(bn)
	}
	n := a.CountFreeNotIn(nil, 0, BitsPerBlock)
	if n != BitsPerBlock-100 {
		t.Fatalf("count = %d", n)
	}
	n = a.CountFreeNotIn(nil, 150, 250)
	if n != 50 {
		t.Fatalf("count = %d, want 50", n)
	}
}

func TestOnChangeCallback(t *testing.T) {
	a := newMap(1000)
	var events []uint64
	a.OnChange = func(bn uint64, used bool) {
		if used {
			events = append(events, bn)
		} else {
			events = append(events, bn+1000000)
		}
	}
	a.Set(3)
	a.Clear(3)
	if len(events) != 2 || events[0] != 3 || events[1] != 1000003 {
		t.Fatalf("events = %v", events)
	}
}

func TestRebindRecomputesFree(t *testing.T) {
	f := fs.NewFile(1, 2)
	a := New(f, 70000)
	a.Set(1)
	a.Set(40000)
	b := Rebind(f, 70000)
	if b.Free() != 69998 {
		t.Fatalf("rebound free = %d", b.Free())
	}
	if !b.IsSet(1) || !b.IsSet(40000) {
		t.Fatal("rebound bits lost")
	}
}

// FuzzRebindPrefix checks the short-image rule for Rebind's word count: a
// bitmap block installed as any prefix (up to a block) of an image counts
// the same used bits as its zero-padded twin. The file is a user file, so
// InstallBuffer keeps the prefix short.
func FuzzRebindPrefix(f *testing.F) {
	src := fs.NewFile(1, 1)
	a := New(src, BitsPerBlock)
	for _, bn := range []uint64{0, 63, 64, 1000, 8191, BitsPerBlock - 1} {
		a.Set(bn)
	}
	d := src.Buffer(0, 0).Data()
	for _, n := range []int{len(block.Trim(d)), 0, 7, 9, 125, 1023} {
		f.Add(d, n)
	}
	f.Fuzz(func(t *testing.T, img []byte, n int) {
		img = img[:min(len(img), block.Size)]
		if n < 0 || n > len(img) {
			return
		}
		free := func(data []byte) uint64 {
			file := fs.NewMetafile(1, 1)
			file.InstallBuffer(0, 0, block.Image{Bytes: data}, 1, 1)
			return Rebind(file, BitsPerBlock).Free()
		}
		if got, want := free(img[:n]), free(block.Clone(img[:n])); got != want {
			t.Fatalf("prefix of %d bytes: %d free, padded %d", n, got, want)
		}
	})
}

func TestPropertyFreeCountConsistency(t *testing.T) {
	// Property: after arbitrary set/clear sequences, Free() equals a full
	// recount, and FindFree never returns a set bit.
	fn := func(ops []uint16) bool {
		a := newMap(4096)
		state := make(map[uint64]bool)
		for _, op := range ops {
			bn := uint64(op) % 4096
			if state[bn] {
				a.Clear(bn)
				state[bn] = false
			} else {
				a.Set(bn)
				state[bn] = true
			}
		}
		n := a.CountFreeNotIn(nil, 0, 4096)
		if n != a.Free() {
			return false
		}
		found, _ := a.FindFree(nil, 0, 4096, 4096)
		for _, bn := range found {
			if state[bn] {
				return false
			}
		}
		return uint64(len(found)) == a.Free()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOf(t *testing.T) {
	if BlockOf(0) != 0 || BlockOf(BitsPerBlock-1) != 0 || BlockOf(BitsPerBlock) != 1 {
		t.Fatal("BlockOf wrong")
	}
	if BlockOf(10*BitsPerBlock+5) != block.FBN(10) {
		t.Fatal("BlockOf wrong for large bn")
	}
}

func TestSetRawDoesNotDirty(t *testing.T) {
	f := fs.NewFile(1, 2)
	a := New(f, 1000)
	a.SetRaw(5)
	if f.FrozenCount() != 0 {
		t.Fatal("SetRaw must not dirty into CP")
	}
	if !a.IsSet(5) || a.Free() != 999 {
		t.Fatal("SetRaw state wrong")
	}
	a.SetRaw(5) // idempotent
	if a.Free() != 999 {
		t.Fatal("SetRaw must be idempotent")
	}
}
