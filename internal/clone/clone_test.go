package clone

import (
	"bytes"
	"testing"

	"wafl/internal/block"
	"wafl/internal/fs"
)

// entrySize is the volume-table entry size the layout constants assume (the
// base map record ends at byte 448 of a 512-byte entry).
const entrySize = 512

// testState is a bound clone's state with distinctive fields.
func testState(t testing.TB, splitting bool) *State {
	t.Helper()
	base, err := fs.FileFromRecord(fs.Record{Ino: 7, SizeBlocks: 64, Height: 1, RootVBN: 12345, Gen: 11})
	if err != nil {
		t.Fatal(err)
	}
	return &State{ParentVol: 3, ParentSnap: 1<<33 + 5, Splitting: splitting, BaseFile: base}
}

// TestStateRoundTrip checks that a bound clone's volume-table entry decodes
// to the state that was encoded, with and without a split in progress.
func TestStateRoundTrip(t *testing.T) {
	for _, splitting := range []bool{false, true} {
		st := testState(t, splitting)
		entry := make([]byte, entrySize)
		st.Encode(entry)

		got, err := Decode(entry)
		if err != nil || got == nil {
			t.Fatalf("splitting=%v: clone entry decoded as %v, %v", splitting, got, err)
		}
		if got.ParentVol != st.ParentVol || got.ParentSnap != st.ParentSnap || got.Splitting != splitting {
			t.Fatalf("splitting=%v: decoded {%d %d %v}, want {%d %d %v}", splitting,
				got.ParentVol, got.ParentSnap, got.Splitting, st.ParentVol, st.ParentSnap, splitting)
		}
		if g, w := got.BaseFile.RecordOf(fs.FlagMetafile), st.BaseFile.RecordOf(fs.FlagMetafile); g != w {
			t.Fatalf("splitting=%v: base map record = %+v, want %+v", splitting, g, w)
		}
		// The split cursor is not persisted: a split resumes from the top.
		if got.SplitIno != 0 || got.SplitFBN != 0 {
			t.Fatalf("splitting=%v: decoded a split cursor (%d, %d)", splitting, got.SplitIno, got.SplitFBN)
		}
	}
}

// TestDecodeNonClone checks that an entry without the clone flag decodes to
// nil, whatever else the clone-owned bytes hold: a clone-free file system's
// entries are all zero there, and a stray splitting bit alone is not a clone.
func TestDecodeNonClone(t *testing.T) {
	entry := make([]byte, entrySize)
	if st, err := Decode(entry); st != nil || err != nil {
		t.Fatalf("zero entry decoded to %+v, %v", st, err)
	}
	entry[flagsOff] = flagSplitting
	if st, err := Decode(entry); st != nil || err != nil {
		t.Fatalf("entry with only the splitting bit decoded to %+v, %v", st, err)
	}
}

// TestHeldNilState checks the nil-receiver contract space accounting relies
// on: a non-clone volume holds nothing.
func TestHeldNilState(t *testing.T) {
	var st *State
	if st.Held() != 0 {
		t.Fatal("nil State reports held blocks")
	}
}

// FuzzDecodePrefix checks the short-image rule for the clone-owned bytes of a
// volume-table entry: any prefix (up to a block) decodes as its zero-padded
// twin — the same state, or a non-clone, or an error for both — and never
// panics, whatever the bytes.
func FuzzDecodePrefix(f *testing.F) {
	for _, splitting := range []bool{false, true} {
		entry := make([]byte, entrySize)
		testState(f, splitting).Encode(entry)
		for _, n := range []int{len(block.Trim(entry)), flagsOff + 1, baseRecordOff + 17} {
			f.Add(entry, n)
		}
	}
	f.Fuzz(func(t *testing.T, img []byte, n int) {
		img = img[:min(len(img), block.Size)]
		if n < 0 || n > len(img) {
			return
		}
		got, gerr := Decode(img[:n])
		want, werr := Decode(block.Clone(img[:n]))
		if (gerr == nil) != (werr == nil) || (got == nil) != (want == nil) {
			t.Fatalf("prefix of %d bytes: (%v, %v), padded (%v, %v)", n, got, gerr, want, werr)
		}
		if got == nil {
			return
		}
		g, w := make([]byte, entrySize), make([]byte, entrySize)
		got.Encode(g)
		want.Encode(w)
		if !bytes.Equal(g, w) {
			t.Fatalf("prefix of %d bytes decodes to a different clone state than its padded twin", n)
		}
	})
}
