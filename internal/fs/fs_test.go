package fs

import (
	"bytes"
	"testing"
	"testing/quick"

	"wafl/internal/block"
)

func pattern(tag byte) []byte {
	b := make([]byte, block.Size)
	for i := range b {
		b[i] = tag ^ byte(i)
	}
	return b
}

func TestHeightFor(t *testing.T) {
	cases := []struct {
		blocks uint64
		want   int
	}{
		{1, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 3}, {1 << 24, 3}, {1<<24 + 1, 4},
	}
	for _, c := range cases {
		if got := HeightFor(c.blocks); got != c.want {
			t.Errorf("HeightFor(%d) = %d, want %d", c.blocks, got, c.want)
		}
	}
}

func TestWriteReadBlock(t *testing.T) {
	f := NewFile(1, 2)
	f.WriteBlock(0, pattern(1))
	f.WriteBlock(300, pattern(2))
	if !bytes.Equal(f.ReadBlock(0), pattern(1)) || !bytes.Equal(f.ReadBlock(300), pattern(2)) {
		t.Fatal("read-after-write mismatch")
	}
	if f.ReadBlock(5) != nil {
		t.Fatal("hole should read nil from cache")
	}
	if f.Size() != 301 {
		t.Fatalf("size = %d, want 301", f.Size())
	}
	if f.DirtyCount() != 2 {
		t.Fatalf("dirty = %d, want 2", f.DirtyCount())
	}
}

func TestRewriteSameBlockDirtiesOnce(t *testing.T) {
	f := NewFile(1, 1)
	f.WriteBlock(7, pattern(1))
	f.WriteBlock(7, pattern(2))
	if f.DirtyCount() != 1 {
		t.Fatalf("dirty = %d, want 1", f.DirtyCount())
	}
	if !bytes.Equal(f.ReadBlock(7), pattern(2)) {
		t.Fatal("second write lost")
	}
}

func TestFreezeMovesDirtySet(t *testing.T) {
	f := NewFile(1, 1)
	f.WriteBlock(1, pattern(1))
	f.WriteBlock(2, pattern(2))
	n := f.Freeze()
	if n != 2 || f.FrozenCount() != 2 || f.DirtyCount() != 0 {
		t.Fatalf("freeze: n=%d frozen=%d dirty=%d", n, f.FrozenCount(), f.DirtyCount())
	}
	l0 := f.FrozenLevel(0)
	if len(l0) != 2 || l0[0].FBN() != 1 || l0[1].FBN() != 2 {
		t.Fatalf("frozen level 0 = %v", l0)
	}
	for _, b := range l0 {
		if !b.inCP {
			t.Fatal("frozen buffer not marked inCP")
		}
	}
}

func TestCOWDuringCP(t *testing.T) {
	f := NewFile(1, 1)
	f.WriteBlock(3, pattern(1))
	f.Freeze()
	b := f.Buffer(0, 3)
	// Client overwrites during the CP: the CP image must keep pattern(1).
	f.WriteBlock(3, pattern(9))
	if !bytes.Equal(b.cpImage(), pattern(1)) {
		t.Fatal("CP image lost pre-modification content")
	}
	if !bytes.Equal(b.Data(), pattern(9)) {
		t.Fatal("live image lost client write")
	}
	if f.CoWCopies != 1 {
		t.Fatalf("CoWCopies = %d, want 1", f.CoWCopies)
	}
	if f.DirtyCount() != 1 {
		t.Fatal("client write during CP must dirty the next generation")
	}
	// Second write during CP must not copy again.
	f.WriteBlock(3, pattern(10))
	if f.CoWCopies != 1 {
		t.Fatalf("CoWCopies = %d after second write, want 1", f.CoWCopies)
	}
}

func TestCleanChildUpdatesParentAndRoot(t *testing.T) {
	f := NewFile(1, 2)
	f.WriteBlock(5, pattern(5))
	f.Freeze()

	b := f.FrozenLevel(0)[0]
	_, oldVVBN, oldVBN := f.CleanChild(b, 100, 200)
	if oldVVBN != block.InvalidVVBN || oldVBN != block.InvalidVBN {
		t.Fatal("new block should have no old location")
	}
	if b.VVBN() != 100 || b.VBN() != 200 {
		t.Fatal("buffer location not updated")
	}
	// Parent (L1 idx 0) must now be frozen-dirty with the pointer set.
	l1 := f.FrozenLevel(1)
	if len(l1) != 1 {
		t.Fatalf("L1 frozen = %d, want 1", len(l1))
	}
	vv, vb := PtrAt(l1[0], 5)
	if vv != 100 || vb != 200 {
		t.Fatalf("parent pointer = (%v,%v)", vv, vb)
	}
	// Clean up the chain: L1 then root (level 2).
	f.CleanChild(l1[0], 101, 201)
	l2 := f.FrozenLevel(2)
	if len(l2) != 1 {
		t.Fatalf("root level frozen = %d, want 1", len(l2))
	}
	vv, vb = PtrAt(l2[0], 0)
	if vv != 101 || vb != 201 {
		t.Fatalf("root pointer entry = (%v,%v)", vv, vb)
	}
	f.CleanChild(l2[0], 102, 202)
	if f.RootVVBN != 102 || f.RootVBN != 202 {
		t.Fatalf("root = (%v,%v)", f.RootVVBN, f.RootVBN)
	}
	if f.FrozenCount() != 0 {
		t.Fatalf("frozen count = %d after full clean", f.FrozenCount())
	}
	if f.Gen != 1 {
		t.Fatalf("gen = %d, want 1", f.Gen)
	}
}

func TestRecleanReportsOldLocation(t *testing.T) {
	f := NewFile(1, 1)
	f.WriteBlock(0, pattern(1))
	f.Freeze()
	b := f.FrozenLevel(0)[0]
	f.CleanChild(b, 10, 20)
	f.CleanChild(f.FrozenLevel(1)[0], 11, 21)

	// Overwrite and clean again: the old location must be reported.
	f.WriteBlock(0, pattern(2))
	f.Freeze()
	b2 := f.FrozenLevel(0)[0]
	if b2 != b {
		t.Fatal("same FBN should reuse the buffer")
	}
	_, oldVVBN, oldVBN := f.CleanChild(b2, 30, 40)
	if oldVVBN != 10 || oldVBN != 20 {
		t.Fatalf("old location = (%v,%v), want (10,20)", oldVVBN, oldVBN)
	}
}

func TestSealedBufferCloneOnWrite(t *testing.T) {
	f := NewFile(1, 1)
	f.WriteBlock(0, pattern(1))
	f.Freeze()
	b := f.FrozenLevel(0)[0]
	submitted, _, _ := f.CleanChild(b, 10, 20)
	f.CleanChild(f.FrozenLevel(1)[0], 11, 21)
	// After cleaning, the submitted array is owned by the media; a new
	// client write must not mutate it.
	f.WriteBlock(0, pattern(2))
	if !bytes.Equal(submitted, pattern(1)) {
		t.Fatal("post-clean write mutated the submitted (persisted) image")
	}
}

// CleanChild hands storage the image to keep. A sparse CP-owned image (an
// indirect or a metafile L0) goes out as a trimmed private copy and its
// buffer stays unsealed, so the next CP updates the live array in place; a
// dense one, and a client's adopted L0 however short, go out as the
// buffer's own array, which seals the buffer.
func TestCleanChildHandsOutImage(t *testing.T) {
	// clientWrites writes n 64-byte L0s, as a client does, and freezes them.
	clientWrites := func(n int) func(*File) {
		return func(f *File) {
			for fbn := 0; fbn < n; fbn++ {
				f.WriteBlock(block.FBN(fbn), pattern(byte(fbn))[:64])
			}
			f.Freeze()
		}
	}
	// metaWrite sets byte n-1 of metafile L0 0, as CP-side code does.
	metaWrite := func(n int) func(*File) {
		return func(f *File) {
			b := f.GetOrCreateL0(0)
			b.CPMutableData()[n-1] = 1
			f.DirtyIntoCP(b)
		}
	}
	for _, c := range []struct {
		name   string
		level  int
		write  func(*File)
		sparse bool
	}{
		{"sparse L1", 1, clientWrites(3), true},
		{"dense L1", 1, clientWrites(block.PtrsPerBlock), false},
		{"adopted L0", 0, clientWrites(1), false},
		{"sparse metafile L0", 0, metaWrite(block.Size / 2), true},
		{"dense metafile L0", 0, metaWrite(block.Size/2 + 1), false},
	} {
		f := NewFile(1, 1)
		c.write(f)
		loc := uint64(100)
		var b *Buffer
		var img []byte
		for level := 0; level <= c.level; level++ {
			for _, fb := range f.FrozenLevel(level) {
				b = fb
				live := b.cpImage()
				img, _, _ = f.CleanChild(b, block.VVBN(loc), block.VBN(loc))
				loc++
				if !block.Equal(img, live) {
					t.Fatalf("%s: handed-out image differs from the CP image", c.name)
				}
			}
		}
		if c.sparse {
			if len(img) > block.Size/2 || &img[0] == &b.data[0] || b.sealed {
				t.Fatalf("%s: image of %d bytes, aliased %v, sealed %v; want a private copy of at most half a block, unsealed",
					c.name, len(img), &img[0] == &b.data[0], b.sealed)
			}
		} else if &img[0] != &b.data[0] || !b.sealed {
			t.Fatalf("%s: want the buffer's own array, sealed", c.name)
		}
		if b.adopted {
			continue // client overwrites: TestSealedBufferCloneOnWrite
		}
		want := bytes.Clone(img)
		live := b.data
		f.DirtyIntoCP(b)
		d := b.CPMutableData()
		if (&d[0] == &live[0]) != c.sparse {
			t.Fatalf("%s: next CPMutableData in place = %v, want %v", c.name, &d[0] == &live[0], c.sparse)
		}
		block.PutPtr(d, 0, 7, 7)
		if !bytes.Equal(img, want) {
			t.Fatalf("%s: a CP-side update reached the image storage holds", c.name)
		}
	}
}

// A short indirect image from the media is padded into a private full
// block: unsealed, and every entry past the image's end reads as a hole.
func TestInstallBufferPadsShortIndirect(t *testing.T) {
	l1 := block.New()
	block.PutPtr(l1, 0, 11, 12)
	block.PutPtr(l1, 1, 13, 14)
	media := block.Trim(l1)
	f := NewFile(1, 1)
	b := f.InstallBuffer(1, 0, media, 50, 60)
	if len(b.Data()) != block.Size || b.sealed {
		t.Fatalf("installed %d bytes, sealed %v; want a full private block", len(b.Data()), b.sealed)
	}
	if vv, v := PtrAt(b, 1); vv != 13 || v != 14 {
		t.Fatalf("entry 1 = (%v,%v)", vv, v)
	}
	if vv, v := PtrAt(b, block.PtrsPerBlock-1); vv != 0 || v != 0 {
		t.Fatalf("entry 255 = (%v,%v), want a hole", vv, v)
	}
	f.DirtyIntoCP(b)
	block.PutPtr(b.CPMutableData(), 1, 0, 0)
	if !bytes.Equal(media, block.Trim(l1)) {
		t.Fatal("a CP-side update reached the media's array")
	}
}

// A short L0 image from the media is padded into a private full block when
// the file is a metafile (its record says so), because the metafile
// decoders index whole blocks; a user file's short L0 is adopted as it is,
// so a read miss allocates nothing.
func TestInstallBufferShortL0(t *testing.T) {
	for _, c := range []struct {
		name  string
		flags uint32
		pad   bool
	}{
		{"metafile", FlagInUse | FlagMetafile, true},
		{"user file", FlagInUse, false},
	} {
		f, err := FileFromRecord(Record{Ino: 1, Height: 1, Flags: c.flags})
		if err != nil {
			t.Fatal(err)
		}
		media := pattern(3)[:100]
		b := f.InstallBuffer(0, 2, media, 50, 60)
		if padded := &b.Data()[0] != &media[0]; padded != c.pad || !block.Equal(b.Data(), media) {
			t.Fatalf("%s: installed %d bytes, padded %v; want padded %v, same content", c.name, len(b.Data()), padded, c.pad)
		}
		if c.pad && (len(b.Data()) != block.Size || b.sealed) {
			t.Fatalf("%s: installed %d bytes, sealed %v; want a full private block", c.name, len(b.Data()), b.sealed)
		}
		if !c.pad && !b.sealed {
			t.Fatalf("%s: the adopted media image is not sealed", c.name)
		}
	}
}

// FileFromRecord refuses a record of a tree height no file can have, and
// DecodeMetafile a record without FlagMetafile too.
func TestFileFromRecordRejectsDamage(t *testing.T) {
	for _, r := range []Record{{Ino: 1, Height: 0}, {Ino: 1, Height: MaxHeight + 1}} {
		if f, err := FileFromRecord(r); err == nil {
			t.Fatalf("record %+v gave a file of height %d", r, f.Height())
		}
	}
	rec := make([]byte, RecordSize)
	for _, c := range []struct {
		flags uint32
		ok    bool
	}{{FlagInUse | FlagMetafile, true}, {FlagInUse, false}} {
		EncodeRecord(rec, Record{Ino: 1, Height: 1, Flags: c.flags})
		if f, err := DecodeMetafile(rec); (err == nil) != c.ok || c.ok && !f.metafile {
			t.Fatalf("flags %#x: DecodeMetafile error %v, want ok %v", c.flags, err, c.ok)
		}
	}
}

// FuzzDecodeRecordPrefix checks the short-image rule for inode records: any
// prefix (up to a block) decodes exactly as its zero-padded twin.
func FuzzDecodeRecordPrefix(f *testing.F) {
	rec := make([]byte, RecordSize)
	EncodeRecord(rec, Record{Ino: 1 << 40, SizeBlocks: 300, Height: 2, Flags: FlagInUse | FlagMetafile, RootVVBN: 1 << 33, RootVBN: 77, Gen: 5})
	for _, n := range []int{len(block.Trim(rec)), 0, 20, 37} {
		f.Add(rec, n)
	}
	f.Fuzz(func(t *testing.T, img []byte, n int) {
		img = img[:min(len(img), block.Size)]
		if n < 0 || n > len(img) {
			return
		}
		if got, want := DecodeRecord(img[:n]), DecodeRecord(block.Clone(img[:n])); got != want {
			t.Fatalf("prefix of %d bytes: %+v, padded %+v", n, got, want)
		}
	})
}

func TestDirtyIntoCPAndCPMutableData(t *testing.T) {
	f := NewFile(1, 1)
	b := f.GetOrCreateL0(3)
	d := b.CPMutableData()
	d[0] = 0xEE
	f.DirtyIntoCP(b)
	if f.FrozenCount() != 1 {
		t.Fatal("DirtyIntoCP must add to frozen set")
	}
	f.DirtyIntoCP(b) // idempotent
	if f.FrozenCount() != 1 {
		t.Fatal("DirtyIntoCP must be idempotent")
	}
	if f.CleanChildAll(t) != 2 { // L0 + root
		t.Fatal("unexpected clean count")
	}
}

// CleanChildAll cleans every frozen buffer bottom-up with synthetic
// locations and returns how many were cleaned. Test helper.
func (f *File) CleanChildAll(t *testing.T) int {
	t.Helper()
	n := 0
	loc := uint64(1000)
	for level := 0; level <= f.height; level++ {
		for _, b := range f.FrozenLevel(level) {
			f.CleanChild(b, block.VVBN(loc), block.VBN(loc+1))
			loc += 2
			n++
		}
	}
	return n
}

func TestFreezeWithUncleanedFrozenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewFile(1, 1)
	f.WriteBlock(0, pattern(1))
	f.Freeze()
	f.WriteBlock(1, pattern(2))
	f.Freeze() // previous CP incomplete
}

func TestRecordRoundTrip(t *testing.T) {
	fn := func(ino, size uint64, height uint8, vvbn, vbn, gen uint64) bool {
		h := uint32(height%MaxHeight) + 1
		r := Record{
			Ino: ino, SizeBlocks: size, Height: h, Flags: FlagInUse | FlagMetafile,
			RootVVBN: block.VVBN(vvbn), RootVBN: block.VBN(vbn), Gen: gen,
		}
		buf := make([]byte, RecordSize)
		EncodeRecord(buf, r)
		return DecodeRecord(buf) == r
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordLocation(t *testing.T) {
	fbn, off := RecordLocation(0)
	if fbn != 0 || off != 0 {
		t.Fatal("record 0 location")
	}
	fbn, off = RecordLocation(RecordsPerBlock + 3)
	if fbn != 1 || off != 3*RecordSize {
		t.Fatalf("location = (%d,%d)", fbn, off)
	}
}

func TestFileFromRecordRoundTrip(t *testing.T) {
	f := NewFile(9, 2)
	f.WriteBlock(100, pattern(1))
	f.Freeze()
	f.CleanChildAll(t)
	rec := f.RecordOf(0)
	g, err := FileFromRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Ino() != 9 || g.Height() != 2 || g.Size() != 101 || g.RootVVBN != f.RootVVBN || g.RootVBN != f.RootVBN {
		t.Fatalf("rebuilt file mismatch: %+v vs %+v", g, f)
	}
}

func TestInstallBufferSealsAndAliases(t *testing.T) {
	f := NewFile(1, 1)
	media := pattern(7)
	b := f.InstallBuffer(0, 4, media, 50, 60)
	if !bytes.Equal(f.ReadBlock(4), pattern(7)) {
		t.Fatal("installed buffer unreadable")
	}
	if b.VVBN() != 50 || b.VBN() != 60 {
		t.Fatal("installed location wrong")
	}
	// Writing must clone, preserving the media array.
	f.WriteBlock(4, pattern(8))
	if !bytes.Equal(media, pattern(7)) {
		t.Fatal("write mutated media-owned array")
	}
}

func TestWriteBeyondCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewFile(1, 1)
	f.WriteBlock(block.FBN(block.PtrsPerBlock), pattern(1))
}

func TestFrozenLevelSorted(t *testing.T) {
	f := NewFile(1, 1)
	for _, fbn := range []block.FBN{9, 3, 7, 1, 200} {
		f.WriteBlock(fbn, pattern(byte(fbn)))
	}
	f.Freeze()
	l0 := f.FrozenLevel(0)
	for i := 1; i < len(l0); i++ {
		if l0[i-1].FBN() >= l0[i].FBN() {
			t.Fatal("FrozenLevel not sorted")
		}
	}
}

func TestPropertyFreezeCleanCycle(t *testing.T) {
	// Property: across random write/freeze/clean cycles, every frozen
	// buffer is cleaned exactly once per cycle and dirty counts stay
	// consistent.
	fn := func(writes []uint16) bool {
		f := NewFile(1, 2)
		seen := map[block.FBN]bool{}
		for _, w := range writes {
			fbn := block.FBN(w) % 1000
			f.WriteBlock(fbn, pattern(byte(w)))
			seen[fbn] = true
		}
		if f.DirtyCount() != len(seen) {
			return false
		}
		n := f.Freeze()
		if n != len(seen) {
			return false
		}
		cleaned := 0
		loc := uint64(10)
		for level := 0; level <= f.Height(); level++ {
			for _, b := range f.FrozenLevel(level) {
				f.CleanChild(b, block.VVBN(loc), block.VBN(loc+1))
				loc += 2
				cleaned++
			}
		}
		if f.FrozenCount() != 0 {
			return false
		}
		if len(seen) > 0 && (f.RootVVBN == block.InvalidVVBN || cleaned <= len(seen)) {
			// cleaning must also have written indirects + root
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// WriteBlock replaces the whole block with an image of the length written,
// whatever state the buffer is in and whatever length it held before. Each
// write hands over a fresh array, as the client does: WriteBlock adopts it.
func TestWriteBlockReplacesWholeBlock(t *testing.T) {
	short := func(tag byte) []byte { return pattern(tag)[:64] }
	for _, c := range []struct {
		name      string
		old, next func() []byte
	}{
		{"full then trimmed", func() []byte { return pattern(1) }, func() []byte { return short(2) }},
		{"trimmed then full", func() []byte { return short(1) }, func() []byte { return pattern(2) }},
		{"trimmed then trimmed", func() []byte { return short(1) }, func() []byte { return short(2) }},
	} {
		// Private, dirty buffer: the old tail must not survive (a prefix
		// merge would leave pattern(1)[64:] behind).
		f := NewFile(1, 1)
		f.WriteBlock(0, c.old())
		f.WriteBlock(0, c.next())
		if got := f.ReadBlock(0); !block.Equal(got, c.next()) || len(got) != len(c.next()) {
			t.Fatalf("%s: read back %d bytes, not the %d-byte image written", c.name, len(got), len(c.next()))
		}

		// Frozen buffer: the CP keeps the very array it froze.
		f = NewFile(1, 1)
		f.WriteBlock(0, c.old())
		f.Freeze()
		b := f.Buffer(0, 0)
		frozen := b.cpImage()
		f.WriteBlock(0, c.next())
		f.WriteBlock(0, c.next()) // the second overwrite is adopted too
		if &b.cpImage()[0] != &frozen[0] || !bytes.Equal(frozen, c.old()) {
			t.Fatalf("%s: overwrite while inCP disturbed the CP image", c.name)
		}
		if !bytes.Equal(b.Data(), c.next()) || f.CoWCopies != 1 {
			t.Fatalf("%s: live image wrong or CoWCopies = %d, want 1", c.name, f.CoWCopies)
		}

		// Sealed buffer: the submitted array is the media's alias.
		f.CleanChild(b, 10, 20)
		f.CleanChild(f.FrozenLevel(1)[0], 11, 21)
		f.Freeze()
		submitted, _, _ := f.CleanChild(b, 12, 22)
		f.WriteBlock(0, c.old())
		next := c.next()
		f.WriteBlock(0, next)
		if !bytes.Equal(submitted, c.next()) || &b.Data()[0] == &submitted[0] || &b.Data()[0] != &next[0] {
			t.Fatalf("%s: overwrite of a sealed buffer touched the submitted array or did not adopt its own", c.name)
		}
	}
}

// WriteBlock adopts the caller's array: the buffer's live image is that
// array, nothing writes into it afterwards — not a later overwrite, not
// CP-side code — and adopting counts copy-on-writes exactly as copying did.
func TestWriteBlockAdoptsCallerArray(t *testing.T) {
	for _, n := range []int{64, block.Size} {
		f := NewFile(1, 1)
		first := pattern(1)[:n]
		b := f.WriteBlock(0, first)
		if &b.Data()[0] != &first[0] {
			t.Fatalf("%d bytes: WriteBlock copied the caller's array", n)
		}
		// A same-length overwrite adopts its own array and leaves the first.
		second := pattern(2)[:n]
		f.WriteBlock(0, second)
		if !bytes.Equal(first, pattern(1)[:n]) || &b.Data()[0] != &second[0] {
			t.Fatalf("%d bytes: a later WriteBlock wrote into the earlier array", n)
		}
		// CP-side code gets a private full-length array, never the adopted one.
		d := b.CPMutableData()
		if &d[0] == &second[0] || len(d) != block.Size {
			t.Fatalf("%d bytes: CPMutableData handed out the adopted array", n)
		}
		d[0] ^= 0xFF
		if !bytes.Equal(second, pattern(2)[:n]) {
			t.Fatalf("%d bytes: a CP-side update reached the adopted array", n)
		}
	}

	// CoWCopies: an overwrite leaves nothing behind for a private buffer, the
	// CP image for a frozen one (once), the media's array for a sealed one.
	private := NewFile(1, 1)
	private.WriteBlock(0, pattern(1))
	private.WriteBlock(0, pattern(2))
	frozen := NewFile(1, 1)
	frozen.WriteBlock(0, pattern(1))
	frozen.Freeze()
	frozen.WriteBlock(0, pattern(2))
	frozen.WriteBlock(0, pattern(3))
	sealed := NewFile(1, 1)
	sealed.InstallBuffer(0, 0, pattern(1), 5, 6)
	sealed.WriteBlock(0, pattern(2))
	sealed.WriteBlock(0, pattern(3))
	for _, c := range []struct {
		name string
		f    *File
		want uint64
	}{{"private", private, 0}, {"frozen", frozen, 1}, {"sealed", sealed, 1}} {
		if c.f.CoWCopies != c.want {
			t.Errorf("%s: CoWCopies = %d, want %d", c.name, c.f.CoWCopies, c.want)
		}
	}
}

// Buffers allocate no image until somebody needs one, and CP-side code
// always gets a full-length array.
func TestBufferImageMaterialisation(t *testing.T) {
	f := NewFile(1, 1)
	b := f.GetOrCreateL0(3)
	if b.data != nil {
		t.Fatal("a buffer nobody read or wrote holds an image")
	}
	if len(b.Data()) != block.Size || len(f.ReadBlock(3)) != block.Size {
		t.Fatal("an unwritten buffer must read as a full zero block")
	}
	f.WriteBlock(4, pattern(1)[:64])
	if d := f.Buffer(0, 4).CPMutableData(); len(d) != block.Size || !block.Equal(d, pattern(1)[:64]) {
		t.Fatal("CPMutableData must pad a trimmed image to a full block")
	}
}
