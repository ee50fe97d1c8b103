package snap

import (
	"bytes"
	"testing"

	"wafl/internal/block"
	"wafl/internal/fs"
)

// metafile builds a metafile skeleton with distinctive record fields.
func metafile(t testing.TB, ino uint64) *fs.File {
	t.Helper()
	f, err := fs.FileFromRecord(fs.Record{
		Ino: ino, SizeBlocks: 100 + ino, Height: 2,
		RootVBN: block.VBN(4000 + 7*ino), Gen: 9 + ino,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEntryRoundTrip checks that a snapdir entry decodes to the snapshot
// that was encoded — header fields and both metafile records — and that the
// encoder owns the whole entry (stale bytes from a previous tenant of the
// slot must not survive).
func TestEntryRoundTrip(t *testing.T) {
	s := &Snapshot{ID: 42, CreateCP: 1 << 40, Snapmap: metafile(t, 3), InoCopy: metafile(t, 4)}
	entry := make([]byte, EntrySize)
	for i := range entry {
		entry[i] = 0xff
	}
	s.EncodeEntry(entry)

	got, err := DecodeEntry(entry)
	if err != nil || got == nil {
		t.Fatalf("in-use entry decoded as %v, %v", got, err)
	}
	if got.ID != s.ID || got.CreateCP != s.CreateCP {
		t.Fatalf("header = {%d %d}, want {%d %d}", got.ID, got.CreateCP, s.ID, s.CreateCP)
	}
	for _, f := range []struct {
		name      string
		got, want *fs.File
	}{{"snapmap", got.Snapmap, s.Snapmap}, {"inocopy", got.InoCopy, s.InoCopy}} {
		if g, w := f.got.RecordOf(fs.FlagMetafile), f.want.RecordOf(fs.FlagMetafile); g != w {
			t.Fatalf("%s record = %+v, want %+v", f.name, g, w)
		}
	}

	again := make([]byte, EntrySize)
	got.EncodeEntry(again)
	if string(again) != string(entry) {
		t.Fatal("re-encoding the decoded snapshot changed the entry bytes")
	}
}

// TestDecodeUnusedEntry checks that a zeroed slot decodes to nil.
func TestDecodeUnusedEntry(t *testing.T) {
	if s, err := DecodeEntry(make([]byte, EntrySize)); s != nil || err != nil {
		t.Fatalf("zero entry decoded to %+v, %v", s, err)
	}
}

// FuzzDecodeEntryPrefix checks the short-image rule for snapdir entries: any
// prefix of an entry (up to a block) decodes as its zero-padded twin — the
// same snapshot, or the same unused slot, or an error for both — and never
// panics, whatever the bytes.
func FuzzDecodeEntryPrefix(f *testing.F) {
	entry := make([]byte, EntrySize)
	s := &Snapshot{ID: 42, CreateCP: 1 << 40, Snapmap: metafile(f, 3), InoCopy: metafile(f, 4)}
	s.EncodeEntry(entry)
	for _, n := range []int{len(block.Trim(entry)), 17, 100, 150} {
		f.Add(entry, n)
	}
	f.Fuzz(func(t *testing.T, img []byte, n int) {
		img = img[:min(len(img), block.Size)]
		if n < 0 || n > len(img) {
			return
		}
		got, gerr := DecodeEntry(img[:n])
		want, werr := DecodeEntry(block.Clone(img[:n]))
		if (gerr == nil) != (werr == nil) || (got == nil) != (want == nil) {
			t.Fatalf("prefix of %d bytes: (%v, %v), padded (%v, %v)", n, got, gerr, want, werr)
		}
		if got == nil {
			return
		}
		g, w := make([]byte, EntrySize), make([]byte, EntrySize)
		got.EncodeEntry(g)
		want.EncodeEntry(w)
		if !bytes.Equal(g, w) {
			t.Fatalf("prefix of %d bytes decodes to a different snapshot than its padded twin", n)
		}
	})
}
