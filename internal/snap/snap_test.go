package snap

import (
	"testing"

	"wafl/internal/block"
	"wafl/internal/fs"
)

// metafile builds a metafile skeleton with distinctive record fields.
func metafile(ino uint64) *fs.File {
	return fs.FileFromRecord(fs.Record{
		Ino: ino, SizeBlocks: 100 + ino, Height: 2,
		RootVBN: block.VBN(4000 + 7*ino), Gen: 9 + ino,
	})
}

// TestEntryRoundTrip checks that a snapdir entry decodes to the snapshot
// that was encoded — header fields and both metafile records — and that the
// encoder owns the whole entry (stale bytes from a previous tenant of the
// slot must not survive).
func TestEntryRoundTrip(t *testing.T) {
	s := &Snapshot{ID: 42, CreateCP: 1 << 40, Snapmap: metafile(3), InoCopy: metafile(4)}
	entry := make([]byte, EntrySize)
	for i := range entry {
		entry[i] = 0xff
	}
	s.EncodeEntry(entry)

	got := DecodeEntry(entry)
	if got == nil {
		t.Fatal("in-use entry decoded as an unused slot")
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
	if s := DecodeEntry(make([]byte, EntrySize)); s != nil {
		t.Fatalf("zero entry decoded to %+v", s)
	}
}
