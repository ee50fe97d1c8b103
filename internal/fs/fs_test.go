package fs

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"wafl/internal/allocs"
	"wafl/internal/block"
	"wafl/internal/fifo"
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
	if l0 := frozenL0s(f); !slices.Equal(l0, []block.FBN{1, 2}) {
		t.Fatalf("frozen level 0 = %v", l0)
	}
	if r := f.root; r.frozen[0] != 0b110 || r.dirty[0] != 0 {
		t.Fatalf("slot bits: frozen %b, dirty %b; want the two slots moved", r.frozen[0], r.dirty[0])
	}
}

func TestCOWDuringCP(t *testing.T) {
	f := NewFile(1, 1)
	f.WriteBlock(3, pattern(1))
	f.Freeze()
	// Client overwrites during the CP: the CP image must keep pattern(1).
	f.WriteBlock(3, pattern(9))
	if !bytes.Equal(cpImage(f, 3).Bytes, pattern(1)) {
		t.Fatal("CP image lost pre-modification content")
	}
	if !bytes.Equal(f.ReadBlock(3), pattern(9)) {
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
	if img, _, _ := f.CleanL0(3, 10, 20); !bytes.Equal(img.Bytes, pattern(1)) || !bytes.Equal(f.ReadBlock(3), pattern(10)) {
		t.Fatal("the CP did not write the preserved image, or the client lost its last write")
	}
}

// TestBufferSize pins a buffer at 64 bytes. Only CP-owned blocks have one —
// indirects and metafile L0s — and a user L0 is a word in its L1's slot
// array, so a dirty user block costs no buffer at all; the level and flags
// share one word.
func TestBufferSize(t *testing.T) {
	if got := reflect.TypeFor[Buffer]().Size(); got != 64 {
		t.Fatalf("fs.Buffer is %d bytes, want 64", got)
	}
}

// TestNodeSize pins an index node at 208 bytes: four slices and four
// 256-bit bitmaps (held, dirty, frozen, cleaned). A slot overwritten during
// its CP is one both frozen and dirty, so it needs no bitmap of its own.
func TestNodeSize(t *testing.T) {
	if got := reflect.TypeFor[node]().Size(); got != 208 {
		t.Fatalf("fs node is %d bytes, want 208", got)
	}
}

func TestCleanChildUpdatesParentAndRoot(t *testing.T) {
	f := NewFile(1, 2)
	f.WriteBlock(5, pattern(5))
	f.Freeze()

	_, oldVVBN, oldVBN := f.CleanL0(5, 100, 200)
	if oldVVBN != block.InvalidVVBN || oldVBN != block.InvalidVBN {
		t.Fatal("new block should have no old location")
	}
	// Parent (L1 idx 0) must now be frozen-dirty with the pointer set.
	l1 := frozenAt(f, 1)
	if len(l1) != 1 {
		t.Fatalf("L1 frozen = %d, want 1", len(l1))
	}
	vv, vb := PtrAt(l1[0], 5)
	if vv != 100 || vb != 200 {
		t.Fatalf("parent pointer = (%v,%v)", vv, vb)
	}
	// Clean up the chain: L1 then root (level 2).
	f.CleanChild(l1[0], 101, 201)
	l2 := frozenAt(f, 2)
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
	f.CleanL0(0, 10, 20)
	f.CleanChild(frozenAt(f, 1)[0], 11, 21)

	// Overwrite and clean again: the old location, which the L1 names, must
	// be reported.
	f.WriteBlock(0, pattern(2))
	f.Freeze()
	_, oldVVBN, oldVBN := f.CleanL0(0, 30, 40)
	if oldVVBN != 10 || oldVBN != 20 {
		t.Fatalf("old location = (%v,%v), want (10,20)", oldVVBN, oldVBN)
	}
}

func TestSealedBufferCloneOnWrite(t *testing.T) {
	f := NewFile(1, 1)
	f.WriteBlock(0, pattern(1))
	f.Freeze()
	submitted, _, _ := f.CleanL0(0, 10, 20)
	f.CleanChild(frozenAt(f, 1)[0], 11, 21)
	// After cleaning, the submitted array is owned by the media; a new
	// client write must not mutate it.
	f.WriteBlock(0, pattern(2))
	if !bytes.Equal(submitted.Bytes, pattern(1)) || f.CoWCopies != 1 {
		t.Fatalf("post-clean write mutated the submitted (persisted) image, or counted %d copies", f.CoWCopies)
	}
}

// CleanChild hands storage the image to keep. An indirect goes out as the
// buffer's own array cut to its trimmed length, which seals the buffer: the
// array is as long as its pointers need, a full L1's 2,048 bytes (half a
// block) at most. A sparse metafile L0 goes out as a trimmed
// private copy and its buffer stays unsealed, so the next CP updates the live
// array in place; a dense one goes out as the buffer's own array, which
// seals the buffer. A user L0's image, however short, goes out as the
// client gave it (CleanL0).
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
		newf   func(ino uint64, height int) *File
		level  int
		write  func(*File)
		copied bool // a private copy, not the buffer's array
		array  int  // an indirect's array length: the image is it, trimmed
	}{
		{"sparse L1", NewFile, 1, clientWrites(3), false, 32},
		{"full L1", NewFile, 1, clientWrites(block.PtrsPerBlock), false, block.Size / 2},
		{"sparse metafile L0", NewMetafile, 0, metaWrite(block.Size / 2), true, 0},
		{"dense metafile L0", NewMetafile, 0, metaWrite(block.Size/2 + 1), false, 0},
	} {
		f := c.newf(1, 1)
		c.write(f)
		loc := uint64(100)
		var b *Buffer
		var img []byte
		loc += uint64(cleanL0s(f, loc))
		for level := 0; level <= c.level; level++ {
			for _, fb := range frozenAt(f, level) {
				b = fb
				live := b.Data()
				out, _, _, _ := f.CleanChild(b, block.VVBN(loc), block.VBN(loc))
				img = out.Bytes
				loc++
				if !block.Equal(img, live) {
					t.Fatalf("%s: handed-out image differs from the CP image", c.name)
				}
			}
		}
		switch {
		case c.copied:
			if len(img) > block.Size/2 || &img[0] == &b.data[0] || b.sealed {
				t.Fatalf("%s: image of %d bytes, aliased %v, sealed %v; want a private copy of at most half a block, unsealed",
					c.name, len(img), &img[0] == &b.data[0], b.sealed)
			}
		case &img[0] != &b.data[0] || !b.sealed:
			t.Fatalf("%s: want the buffer's own array, sealed", c.name)
		case c.array > 0:
			if n := len(block.Trim(b.data)); len(img) != n || cap(img) != n || len(b.data) != c.array {
				t.Fatalf("%s: image of %d bytes (capacity %d) from an array of %d, trimmed %d; want the %d-byte array cut to its trimmed length",
					c.name, len(img), cap(img), len(b.data), n, c.array)
			}
		case len(img) != len(b.data):
			t.Fatalf("%s: image of %d bytes from an array of %d; want it whole", c.name, len(img), len(b.data))
		}
		want := bytes.Clone(img)
		live := b.data
		f.DirtyIntoCP(b)
		var d []byte
		if b.level > 0 {
			d = b.ptrs(block.PtrSize)
		} else {
			d = b.CPMutableData()
		}
		if (&d[0] == &live[0]) != c.copied {
			t.Fatalf("%s: next CP-side write in place = %v, want %v", c.name, &d[0] == &live[0], c.copied)
		}
		block.PutPtr(d, 0, 7, 7)
		if !bytes.Equal(img, want) {
			t.Fatalf("%s: a CP-side update reached the image storage holds", c.name)
		}
	}
	f := NewFile(1, 1)
	written := pattern(1)[:64]
	f.WriteBlock(0, written)
	f.Freeze()
	if img, _, _ := f.CleanL0(0, 100, 100); &img.Bytes[0] != &written[0] || len(img.Bytes) != len(written) {
		t.Fatal("a user L0 went out as other than the array the client gave")
	}
}

// A sparse indirect image from the media is copied into a private array of
// the image's own length, unsealed and not the media's: every entry past
// its end reads as a hole, and the next pointer grows the copy.
func TestInstallBufferKeepsSparseIndirectShort(t *testing.T) {
	l1 := block.New()
	block.PutPtr(l1, 0, 11, 12)
	block.PutPtr(l1, 1, 13, 14)
	media := block.Trim(l1)
	f := NewFile(1, 1)
	b := f.InstallBuffer(1, 0, block.Image{Bytes: media}, 50, 60)
	if len(b.Data()) != len(media) || b.sealed || &b.Data()[0] == &media[0] {
		t.Fatalf("installed %d bytes of the media's %d, sealed %v, aliased %v; want a private array of the image's length",
			len(b.Data()), len(media), b.sealed, &b.Data()[0] == &media[0])
	}
	if vv, v := PtrAt(b, 1); vv != 13 || v != 14 {
		t.Fatalf("entry 1 = (%v,%v)", vv, v)
	}
	if vv, v := PtrAt(b, block.PtrsPerBlock-1); vv != 0 || v != 0 {
		t.Fatalf("entry 255 = (%v,%v), want a hole", vv, v)
	}
	f.DirtyIntoCP(b)
	block.PutPtr(b.ptrs(3*block.PtrSize), 2, 15, 16)
	block.PutPtr(l1, 2, 15, 16)
	if !bytes.Equal(media, block.Trim(l1)[:len(media)]) || !block.Equal(b.Data(), l1) {
		t.Fatal("a CP-side update reached the media's array, or lost an entry")
	}
	if e := f.InstallBuffer(1, 0, block.Image{Bytes: []byte{}}, 50, 60); e.data != nil {
		t.Fatalf("an empty image installed an array of %d bytes; want none", len(e.data))
	}
}

// A short L0 image from the media is padded into a private full block when
// the file is a metafile (its record says so), because the metafile
// decoders index whole blocks; a user file's L0 has no buffer to install
// it in: a read holds it (Hold), and its content stays the media's.
func TestInstallBufferShortL0(t *testing.T) {
	for _, c := range []struct {
		name  string
		flags uint32
		meta  bool
	}{
		{"metafile", FlagInUse | FlagMetafile, true},
		{"user file", FlagInUse, false},
	} {
		f, err := FileFromRecord(Record{Ino: 1, Height: 1, Flags: c.flags})
		if err != nil {
			t.Fatal(err)
		}
		media := pattern(3)[:100]
		if !c.meta {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "has no buffer") {
						t.Fatalf("%s: installing an L0 recovered %v, want the fault", c.name, r)
					}
				}()
				f.InstallBuffer(0, 2, block.Image{Bytes: media}, 50, 60)
			}()
			continue
		}
		b := f.InstallBuffer(0, 2, block.Image{Bytes: media}, 50, 60)
		if &b.Data()[0] == &media[0] || !block.Equal(b.Data(), media) || len(b.Data()) != block.Size || b.sealed {
			t.Fatalf("%s: installed %d bytes, sealed %v; want a full private block, same content", c.name, len(b.Data()), b.sealed)
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
	f := NewMetafile(1, 1)
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

// CleanChildAll cleans every frozen block bottom-up, each level in its
// walk's order (NextFrozen), the i-th at VVBN 1000+2i and VBN 1001+2i, and
// returns how many it cleaned. Test helper.
func (f *File) CleanChildAll(t *testing.T) int {
	t.Helper()
	n := 0
	for level := 0; level <= f.height; level++ {
		for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
			vvbn, vbn := block.VVBN(1000+2*n), block.VBN(1001+2*n)
			if b == nil {
				f.CleanL0(idx, vvbn, vbn)
			} else {
				f.CleanChild(b, vvbn, vbn)
			}
			n++
		}
	}
	return n
}

// all is past every index of every level of every tree: a walk's hi that
// stops nowhere.
const all = block.FBN(1) << (radixBits * MaxHeight)

// frozenL0s returns f's frozen user L0s in cleaning order: none for a
// metafile, whose L0s are buffers.
func frozenL0s(f *File) []block.FBN {
	var out []block.FBN
	for fbn, b, ok := f.NextFrozen(0, 0, all); ok && b == nil; fbn, b, ok = f.NextFrozen(0, fbn+1, all) {
		out = append(out, fbn)
	}
	return out
}

// frozenAt returns f's frozen buffers at level in cleaning order.
func frozenAt(f *File, level int) []*Buffer {
	var out []*Buffer
	for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
		out = append(out, b)
	}
	return out
}

// cleanL0s cleans f's frozen user L0s in cleaning order, the i-th at VVBN
// loc+2i and VBN loc+2i+1, and returns how many it cleaned.
func cleanL0s(f *File, loc uint64) int {
	fbns := frozenL0s(f)
	for i, fbn := range fbns {
		f.CleanL0(fbn, block.VVBN(loc+2*uint64(i)), block.VBN(loc+2*uint64(i)+1))
	}
	return len(fbns)
}

// cpImage returns the image the running CP writes for user L0 fbn: its
// preserved image if a client overwrote it, its live one otherwise.
func cpImage(f *File, fbn block.FBN) block.Image {
	u := f.images()
	if w, ok := u.preserved[l0Key{f, fbn}]; ok {
		return u.Image(w)
	}
	img, _ := f.L0(fbn)
	return img
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

// An L1 installed from the media names its L0s' committed addresses: a read
// holds L0 4 (Hold) with no image of its own, its overwrite counts a
// copy-on-write of the media's image, and its clean frees the address the
// L1 names.
func TestInstallBufferSealsAndAliases(t *testing.T) {
	f := NewFile(1, 1)
	l1 := block.New()
	block.PutPtr(l1, 4, 50, 60)
	f.InstallBuffer(1, 0, block.Image{Bytes: l1}, 70, 80)
	f.Hold(4)
	if _, ok := f.L0(4); ok || !f.Resident(4) {
		t.Fatal("a held L0 has an image of its own, or no residency bit")
	}
	f.WriteBlock(4, pattern(8))
	if f.CoWCopies != 1 {
		t.Fatalf("the overwrite of a held L0 counted %d copies, want 1", f.CoWCopies)
	}
	f.Freeze()
	if _, oldVVBN, oldVBN := f.CleanL0(4, 90, 100); oldVVBN != 50 || oldVBN != 60 {
		t.Fatalf("the clean freed (%v,%v), want the installed (50,60)", oldVVBN, oldVBN)
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

// TestFrozenLevelSorted: blocks written and dirtied into the CP out of FBN
// order are walked in FBN order, a user file's slots and a metafile's L0
// buffers alike.
func TestFrozenLevelSorted(t *testing.T) {
	f := NewFile(1, 2)
	m := NewMetafile(2, 2)
	for _, fbn := range []block.FBN{9, 3, 700, 7, 1, 200, 300} {
		f.WriteBlock(fbn, pattern(byte(fbn)))
		m.DirtyIntoCP(m.GetOrCreateL0(fbn))
	}
	f.Freeze()
	if l0 := frozenL0s(f); !slices.IsSorted(l0) || len(l0) != 7 {
		t.Fatalf("frozen user L0s %v, want the seven in FBN order", l0)
	}
	l0 := frozenAt(m, 0)
	if len(l0) != 7 {
		t.Fatalf("frozen metafile L0s = %d, want 7", len(l0))
	}
	for i := 1; i < len(l0); i++ {
		if l0[i-1].FBN() >= l0[i].FBN() {
			t.Fatal("frozen metafile L0s not walked in FBN order")
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
		cleaned := f.CleanChildAll(t)
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
// whatever state the L0 is in and whatever length it held before. Each
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
		// Dirty L0: the old tail must not survive (a prefix merge would
		// leave pattern(1)[64:] behind).
		f := NewFile(1, 1)
		f.WriteBlock(0, c.old())
		f.WriteBlock(0, c.next())
		if got := f.ReadBlock(0); !block.Equal(got, c.next()) || len(got) != len(c.next()) {
			t.Fatalf("%s: read back %d bytes, not the %d-byte image written", c.name, len(got), len(c.next()))
		}

		// Frozen L0: the CP keeps the very array it froze.
		f = NewFile(1, 1)
		f.WriteBlock(0, c.old())
		f.Freeze()
		frozen := cpImage(f, 0).Bytes
		f.WriteBlock(0, c.next())
		f.WriteBlock(0, c.next()) // the second overwrite is adopted too
		if &cpImage(f, 0).Bytes[0] != &frozen[0] || !bytes.Equal(frozen, c.old()) {
			t.Fatalf("%s: overwrite while frozen disturbed the CP image", c.name)
		}
		if !bytes.Equal(f.ReadBlock(0), c.next()) || f.CoWCopies != 1 {
			t.Fatalf("%s: live image wrong or CoWCopies = %d, want 1", c.name, f.CoWCopies)
		}

		// Cleaned L0: the submitted array is the media's alias.
		f.CleanL0(0, 10, 20)
		f.CleanChild(frozenAt(f, 1)[0], 11, 21)
		f.Freeze()
		submitted, _, _ := f.CleanL0(0, 12, 22)
		f.WriteBlock(0, c.old())
		next := c.next()
		f.WriteBlock(0, next)
		if !bytes.Equal(submitted.Bytes, c.next()) || &f.ReadBlock(0)[0] == &submitted.Bytes[0] || &f.ReadBlock(0)[0] != &next[0] {
			t.Fatalf("%s: overwrite of a cleaned L0 touched the submitted array or did not adopt its own", c.name)
		}
	}
}

// WriteBlock adopts the caller's array: the L0's live image is that array,
// nothing writes into it afterwards — not a later overwrite — and adopting
// counts copy-on-writes exactly as copying did.
func TestWriteBlockAdoptsCallerArray(t *testing.T) {
	for _, n := range []int{64, block.Size} {
		f := NewFile(1, 1)
		first := pattern(1)[:n]
		if f.WriteBlock(0, first) != nil {
			t.Fatalf("%d bytes: a user L0 has a buffer", n)
		}
		if &f.ReadBlock(0)[0] != &first[0] {
			t.Fatalf("%d bytes: WriteBlock copied the caller's array", n)
		}
		// A same-length overwrite adopts its own array and leaves the first.
		second := pattern(2)[:n]
		f.WriteBlock(0, second)
		if !bytes.Equal(first, pattern(1)[:n]) || &f.ReadBlock(0)[0] != &second[0] {
			t.Fatalf("%d bytes: a later WriteBlock wrote into the earlier array", n)
		}
	}

	// CoWCopies: an overwrite leaves nothing behind for a dirty L0, the CP
	// image for a frozen one (once), the media's image for one held at the
	// address its L1 names.
	private := NewFile(1, 1)
	private.WriteBlock(0, pattern(1))
	private.WriteBlock(0, pattern(2))
	frozen := NewFile(1, 1)
	frozen.WriteBlock(0, pattern(1))
	frozen.Freeze()
	frozen.WriteBlock(0, pattern(2))
	frozen.WriteBlock(0, pattern(3))
	held := NewFile(1, 1)
	l1 := block.New()
	block.PutPtr(l1, 0, 5, 6)
	held.InstallBuffer(1, 0, block.Image{Bytes: l1}, 7, 8)
	held.Hold(0)
	held.WriteBlock(0, pattern(2))
	held.WriteBlock(0, pattern(3))
	for _, c := range []struct {
		name string
		f    *File
		want uint64
	}{{"private", private, 0}, {"frozen", frozen, 1}, {"held", held, 1}} {
		if c.f.CoWCopies != c.want {
			t.Errorf("%s: CoWCopies = %d, want %d", c.name, c.f.CoWCopies, c.want)
		}
	}
}

// Buffers allocate no image until somebody needs one, and CP-side code
// always gets a full-length array.
func TestBufferImageMaterialisation(t *testing.T) {
	f := NewMetafile(1, 1)
	b := f.GetOrCreateL0(3)
	if b.data != nil {
		t.Fatal("a buffer nobody read or wrote holds an image")
	}
	if len(b.Data()) != block.Size || len(f.Buffer(0, 3).Data()) != block.Size {
		t.Fatal("an unwritten buffer must read as a full zero block")
	}
	if d := f.GetOrCreateL0(4).CPMutableData(); len(d) != block.Size || !block.Equal(d, nil) {
		t.Fatal("CPMutableData must hand out a full zero block")
	}
}

// TestDropCleanKeepsResidency: when its CP commits, a clean user L0's word
// leaves its slot and its residency bit stays; the next write counts a
// copy-on-write of the media's image and its clean frees the address its L1
// names. An L0 overwritten during the CP keeps its word. Release takes back
// what the tree still holds.
func TestDropCleanKeepsResidency(t *testing.T) {
	p := NewImagePool()
	f := NewFile(1, 2)
	f.SetImagePool(p)
	f.WriteBlock(3, pattern(1))
	f.WriteBlock(300, pattern(2))
	f.Freeze()
	f.CleanChildAll(t)
	f.WriteBlock(300, pattern(3)) // dirty again before the commit
	_, at, _ := f.Resolve(3, nil)
	noMedia := func(func(block.VBN, []byte, bool)) {}
	if err := p.Audit([]*File{f}, noMedia); err == nil || !strings.Contains(err.Error(), "clean user L0 (ino 1, fbn 3)") {
		t.Fatalf("audit before the commit: %v, want the clean L0 3 named", err)
	}
	f.DropClean()
	if err := p.Audit([]*File{f}, noMedia); err != nil {
		t.Fatalf("audit after the commit: %v", err)
	}
	_, in3 := f.L0(3)
	_, in300 := f.L0(300)
	if in3 || !f.Resident(3) || !in300 || f.Resident(4) {
		t.Fatalf("after the commit: L0 3 in memory %v, resident %v; L0 300 in memory %v; resident 4 %v", in3, f.Resident(3), in300, f.Resident(4))
	}
	if p.user.Len() != 1 {
		t.Fatalf("%d byte-image handles after the commit, want L0 300's", p.user.Len())
	}
	cow := f.CoWCopies
	f.WriteBlock(3, pattern(4))
	f.Freeze()
	if _, _, old := f.CleanL0(3, 9, 9); old != at || f.CoWCopies != cow+1 {
		t.Fatalf("rewritten L0 3 freed %v (CoW copies %d), want %v and a CoW copy of its media image", old, f.CoWCopies-cow, at)
	}
	f.Hold(7)
	if _, ok := f.L0(7); !f.Resident(7) || ok {
		t.Fatal("Hold made an image, or no bit")
	}
	f.Release()
	if st := p.Stats().Slots; st.Outstanding() != 0 || p.user.Len() != 0 || f.Resident(3) {
		t.Fatalf("after Release: slot pool %+v, %d handles, resident 3 %v", st, p.user.Len(), f.Resident(3))
	}
}

// TestSlotArrayLifecycle: a user file's level-1 node holds a slot array from
// the image pool only while one of its slots holds a word. The commit that
// drops a node's last word gives the array back, and the block stays
// resident; writing the block again takes a new array. An outgrown array
// goes back at once, Release returns what the tree still holds, and a crash
// abandons it. A metafile's L0 buffers never leave, so its arrays are not
// the pool's.
func TestSlotArrayLifecycle(t *testing.T) {
	p := NewImagePool()
	f := NewFile(1, 2)
	f.SetImagePool(p)
	slots := func() fifo.PoolStats { return p.Stats().Slots }
	words := func(fbn block.FBN) []block.Word { return f.find(0, fbn, false).words }
	f.WriteBlock(3, pattern(1))   // node 0, an 8-slot array
	f.WriteBlock(300, pattern(2)) // node 1
	p.Trim()                      // a commit: the lists may keep arrays from here on
	f.Freeze()
	f.CleanChildAll(t)
	f.WriteBlock(300, pattern(3)) // dirty again before the commit
	f.DropClean()
	if words(3) != nil || words(300) == nil || !f.Resident(3) {
		t.Fatalf("after the commit: node 0 array %v, node 1 array %v, 3 resident %v", words(3) != nil, words(300) != nil, f.Resident(3))
	}
	if st := slots(); st.Taken != 2 || st.Returned != 1 || st.New != 2 {
		t.Fatalf("slot pool %+v, want 2 built and taken, 1 returned", st)
	}
	f.WriteBlock(3, pattern(4))
	if len(words(3)) != minSlots {
		t.Fatalf("rewritten L0 3: array of %d, want %d slots", len(words(3)), minSlots)
	}
	if st := slots(); st.Taken != 3 || st.New != 2 {
		t.Fatalf("slot pool %+v, want the returned array taken again", st)
	}
	f.WriteBlock(200, pattern(5)) // outgrows node 0's array
	if len(words(3)) != 256 || !bytes.Equal(f.ReadBlock(3), pattern(4)) {
		t.Fatalf("node 0 grown to %d slots, L0 3 kept %v", len(words(3)), bytes.Equal(f.ReadBlock(3), pattern(4)))
	}
	if st := slots(); st.Taken != 4 || st.Returned != 2 || st.Outstanding() != 2 {
		t.Fatalf("slot pool %+v, want the outgrown array back and 2 held", st)
	}
	f.Release()
	if st := slots(); st.Outstanding() != 0 || st.Returned != 4 {
		t.Fatalf("after Release: slot pool %+v, want every array back", st)
	}
	f.WriteBlock(5, pattern(6))
	p.Abandon()
	if st := slots(); st.Outstanding() != 0 || st.Abandoned != 1 || p.user.Len() != 0 {
		t.Fatalf("after a crash: slot pool %+v, %d handles, want the held array abandoned", st, p.user.Len())
	}

	m := NewMetafile(2, 1)
	m.SetImagePool(p)
	before := slots()
	m.GetOrCreateL0(9)
	if m.find(0, 9, false).leaves == nil || slots() != before {
		t.Fatalf("metafile slot array from the pool: %+v, was %+v", slots(), before)
	}
}

// TestSlotArraysOutlastABackToBackCP: a short CP interval — a back-to-back
// CP that writes one node — does not trim away the slot arrays a regular
// interval takes again: Trim keeps twice the larger of the last two
// intervals' takes. Once warm, cycles of a regular interval (64 nodes
// written, cleaned on a media stand-in that hands left arrays back, and
// committed) and a short one allocate nothing. When Trim kept twice the
// last interval's take alone, each cycle rebuilt 68 arrays
// here, and a warm 300 ms overload_burst window built 2,313 (4 to 22 now).
func TestSlotArraysOutlastABackToBackCP(t *testing.T) {
	p := NewImagePool()
	m := newMarkMedia(p)
	f := NewFile(1, 2)
	f.SetImagePool(p)
	gen := 0
	// at is where generation gen cleans block (level, idx): one of four
	// VBNs, so no block is cleaned where it was the generation before, nor
	// node 0 where it was two back.
	at := func(level int, idx block.FBN) (block.VVBN, block.VBN) {
		vbn := block.VBN(1_000_000*(level+1) + 10*int(idx) + gen%4)
		return block.VVBN(vbn), vbn
	}
	// land puts the image cleaned to (level, idx) on the media and forgets
	// the address it left.
	land := func(level int, idx block.FBN, img block.Image, mediaOnly bool, old block.VBN) {
		_, vbn := at(level, idx)
		m.land(vbn, img.Bytes, mediaOnly)
		if old != block.InvalidVBN {
			m.forget(p, old)
		}
	}
	interval := func(nodes int) {
		for n := range nodes {
			fbn := block.FBN(n * block.PtrsPerBlock)
			f.WriteImage(fbn, block.Image{Name: block.NameOf(1, fbn, byte(gen), 64)})
		}
		f.Freeze()
		for level := 0; level <= f.Height(); level++ {
			for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
				vvbn, vbn := at(level, idx)
				if b == nil {
					img, _, old := f.CleanL0(idx, vvbn, vbn)
					land(0, idx, img, false, old)
					continue
				}
				img, mediaOnly, _, old := f.CleanChild(b, vvbn, vbn)
				land(level, idx, img, mediaOnly, old)
			}
		}
		f.DropClean()
		p.Trim()
		gen++
	}
	cycle := func() {
		interval(64)
		interval(1)
	}
	for range 3 {
		cycle()
	}
	built := p.Stats().Slots.New
	if got := allocs.Count(10, cycle); got != 0 || p.Stats().Slots.New != built {
		t.Errorf("10 cycles of a regular and a back-to-back CP allocate %d objects, %d slot arrays; want 0", got, p.Stats().Slots.New-built)
	}
}
