package clone

import (
	"testing"

	"wafl/internal/fs"
)

// entrySize is the volume-table entry size the layout constants assume (the
// base map record ends at byte 448 of a 512-byte entry).
const entrySize = 512

// TestStateRoundTrip checks that a bound clone's volume-table entry decodes
// to the state that was encoded, with and without a split in progress.
func TestStateRoundTrip(t *testing.T) {
	for _, splitting := range []bool{false, true} {
		st := &State{
			ParentVol:  3,
			ParentSnap: 1<<33 + 5,
			Splitting:  splitting,
			BaseFile: fs.FileFromRecord(fs.Record{
				Ino: 7, SizeBlocks: 64, Height: 1, RootVBN: 12345, Gen: 11,
			}),
		}
		entry := make([]byte, entrySize)
		st.Encode(entry)

		got := Decode(entry)
		if got == nil {
			t.Fatalf("splitting=%v: clone entry decoded as a non-clone volume", splitting)
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
	if st := Decode(entry); st != nil {
		t.Fatalf("zero entry decoded to %+v", st)
	}
	entry[flagsOff] = flagSplitting
	if st := Decode(entry); st != nil {
		t.Fatalf("entry with only the splitting bit decoded to %+v", st)
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
