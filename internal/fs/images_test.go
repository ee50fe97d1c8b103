package fs

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"wafl/internal/block"
)

// Every length from a byte to a block maps to the smallest class that holds
// it, a class's capacity maps back to the class, and above 128 bytes a class
// wastes at most an eighth of the length: the pool's classes are
// block.Class's.
func TestImageClasses(t *testing.T) {
	prev := 0
	for n := 1; n <= block.Size; n++ {
		c, size := block.Class(n)
		if c < prev || c >= block.Classes || size < n || block.ClassCap(c) != size {
			t.Fatalf("Class(%d) = %d, %d (class size %d, previous class %d)", n, c, size, block.ClassCap(c), prev)
		}
		if n > 128 && (size-n)*8 > n {
			t.Fatalf("Class(%d) wastes %d bytes", n, size-n)
		}
		prev = c
	}
	for c := range block.Classes {
		if got, _ := block.Class(block.ClassCap(c)); got != c {
			t.Fatalf("class %d of size %d maps to class %d", c, block.ClassCap(c), got)
		}
	}
	if _, size := block.Class(block.Size); size != block.Size {
		t.Fatalf("a full block takes a class of %d bytes", size)
	}
}

// markMedia stands in for the data drives as the pool sees them: an image per
// VBN, and the media-only mark storage.Drive keeps beside it.
type markMedia struct {
	img  map[block.VBN][]byte
	mark map[block.VBN]bool
}

func newMarkMedia(p *ImagePool) *markMedia {
	m := &markMedia{img: map[block.VBN][]byte{}, mark: map[block.VBN]bool{}}
	p.SetMarker(m)
	return m
}

// land makes img the image at vbn, marked if mediaOnly: a write's landing.
func (m *markMedia) land(vbn block.VBN, img []byte, mediaOnly bool) {
	m.img[vbn], m.mark[vbn] = img, mediaOnly
}

// Mark is storage.Drive.Mark: vbn must hold arr's array, and arr must be at
// least its image's size class long.
func (m *markMedia) Mark(vbn block.VBN, arr []byte) bool {
	img := m.img[vbn]
	if len(img) == 0 || len(arr) == 0 || &img[0] != &arr[0] {
		return false
	}
	if _, c := block.Class(len(img)); cap(arr) < c {
		return false
	}
	m.img[vbn], m.mark[vbn] = arr[:len(img)], true
	return true
}

// forget drops vbn's image and, if it was marked, hands its size class's
// whole array back to p, as raid.Group.Forget does through
// storage.Drive.Owned.
func (m *markMedia) forget(p *ImagePool, vbn block.VBN) {
	img, marked := m.img[vbn], m.mark[vbn]
	delete(m.img, vbn)
	delete(m.mark, vbn)
	if marked {
		_, c := block.Class(len(img))
		p.Release(img[:c])
	}
}

// visit calls fn with every image in VBN order, as Aggregate.CheckImages does.
func (m *markMedia) visit(fn func(block.VBN, []byte, bool)) {
	for _, vbn := range slices.Sorted(maps.Keys(m.img)) {
		fn(vbn, m.img[vbn], m.mark[vbn])
	}
}

// payload returns a 64-byte payload of pattern tag, written as bytes.
func payload(tag byte) []byte { return pattern(tag)[:64] }

// pooled returns a file of height 1 drawing from p: a metafile, or a user
// file whose L1 is its one CP-owned block.
func pooled(p *ImagePool, meta bool) *File {
	f := NewFile(1, 1)
	if meta {
		f = NewMetafile(1, 1)
	}
	f.SetImagePool(p)
	return f
}

// setL0 writes n bytes of pattern tag into metafile L0 fbn, as CP-side code
// does, dirtying it into the CP.
func setL0(f *File, fbn block.FBN, n int, tag byte) *Buffer {
	b := f.GetOrCreateL0(fbn)
	copy(b.CPMutableData(), pattern(tag)[:n])
	f.DirtyIntoCP(b)
	return b
}

// clean cleans b at vbn and returns the image handed to the media, and
// whether it is written media-only.
func clean(f *File, b *Buffer, vbn block.VBN) ([]byte, bool) {
	img, mediaOnly, _, _ := f.CleanChild(b, block.VVBN(vbn), vbn)
	return img.Bytes, mediaOnly
}

// cleanTo cleans b at vbn and lands the image on m.
func cleanTo(m *markMedia, f *File, b *Buffer, vbn block.VBN) []byte {
	img, mediaOnly := clean(f, b, vbn)
	m.land(vbn, img, mediaOnly)
	return img
}

// The mark and return rules (DESIGN §14): an array goes back to the pool only
// once the media alone held it, its DBN marked, and the media let go of it.
// markMedia.forget stands in for raid.Group's Forget and displaced-write
// completion, which release a marked image once the data drive and the
// parity row both dropped it.
func TestImagePoolOwnership(t *testing.T) {
	t.Run("sealed array forgotten while its buffer holds it", func(t *testing.T) {
		p := NewImagePool()
		m := newMarkMedia(p)
		f := pooled(p, true)
		b := setL0(f, 0, block.Size, 1)
		img := cleanTo(m, f, b, 100)
		if &img[0] != &b.data[0] || !b.sealed || m.mark[100] {
			t.Fatalf("dense image: aliased %v, sealed %v, marked %v; want the buffer's own, sealed, unmarked",
				&img[0] == &b.data[0], b.sealed, m.mark[100])
		}
		// The VBN is forgotten (the block moved, or a snapshot let go of it)
		// while the buffer still holds the array.
		m.forget(p, 100)
		if !bytes.Equal(b.Data(), pattern(1)) || p.Stats().Returned != 0 {
			t.Fatalf("forgetting the media's copy recycled the buffer's array (%d returned)", p.Stats().Returned)
		}
		// The buffer then leaves it: no DBN holds it, so nothing marks it.
		f.DirtyIntoCP(b)
		b.CPMutableData()
		if len(m.mark) != 0 {
			t.Fatalf("an array no DBN holds was marked: %v", m.mark)
		}
	})
	t.Run("sparse copy is media-only from birth and comes back poisoned", func(t *testing.T) {
		p := NewImagePool()
		m := newMarkMedia(p)
		f := pooled(p, true)
		b := setL0(f, 0, 100, 2)
		img, mediaOnly := clean(f, b, 100)
		if len(img) > f.L0Len()/2 || &img[0] == &b.data[0] || b.sealed || !mediaOnly {
			t.Fatalf("sparse image of %d bytes: aliased %v, sealed %v, media-only %v", len(img), &img[0] == &b.data[0], b.sealed, mediaOnly)
		}
		m.land(100, img, mediaOnly)
		m.forget(p, 100)
		if p.Stats().Returned != 1 {
			t.Fatalf("released copy: stats %+v", p.Stats())
		}
		if bytes.Count(img, []byte{poison}) != len(img) {
			t.Fatalf("released array is not poisoned: % x", img[:8])
		}
		// The next copy of its class reuses it, and holds its own bytes.
		b2 := setL0(f, 1, len(img), 3)
		img2, _ := clean(f, b2, 101)
		if &img2[0] != &img[0] || !bytes.Equal(img2, block.Trim(pattern(3)[:len(img)])) {
			t.Fatal("the next copy of the class did not reuse the released array, or kept its poison")
		}
		if !bytes.Equal(b.Data()[:100], pattern(2)[:100]) {
			t.Fatal("releasing the copy touched the buffer")
		}
	})
	t.Run("sealed array the buffer leaves becomes media-only", func(t *testing.T) {
		p := NewImagePool()
		m := newMarkMedia(p)
		f := pooled(p, false)
		for fbn := range block.PtrsPerBlock {
			f.WriteBlock(block.FBN(fbn), pattern(byte(fbn))[:64])
		}
		f.Freeze()
		cleanL0s(f, 1000)
		l1 := frozenAt(f, 1)[0]
		img := cleanTo(m, f, l1, 100)
		if !l1.sealed || m.mark[100] {
			t.Fatal("a dense L1 was not sealed, or was marked while its buffer holds it")
		}
		f.DirtyIntoCP(l1)
		recycled := p.Stats().Recycled
		d := l1.ptrs(block.PtrSize)
		if &d[0] == &img[0] || !m.mark[100] || p.Stats().Recycled != recycled {
			t.Fatalf("next pointer into a sealed L1: in place %v, old array marked %v, %d recycled",
				&d[0] == &img[0], m.mark[100], p.Stats().Recycled-recycled)
		}
		want := bytes.Clone(d)
		m.forget(p, 100)
		if !bytes.Equal(l1.Data(), want) || p.Stats().Returned != 1 {
			t.Fatal("forgetting the left array did not return it, or touched the buffer's new one")
		}
	})
	t.Run("a growing indirect recycles the private array it leaves", func(t *testing.T) {
		p := NewImagePool()
		f := pooled(p, false)
		for fbn := range 5 {
			f.WriteBlock(block.FBN(fbn), pattern(byte(fbn))[:64])
		}
		f.Freeze()
		var left [][]byte
		for i, fbn := range frozenL0s(f) {
			f.CleanL0(fbn, block.VVBN(1000+i), block.VBN(1000+i))
			left = append(left, f.Buffer(1, 0).data)
		}
		// 8-byte pointers fill 16, 32 and 64 bytes: each array takes a
		// second pointer in place, and the first two were left, poisoned
		// and counted apart from the media's returns.
		st := p.Stats()
		for i, n := range []int{16, 16, 32, 32, 64} {
			if len(left[i]) != n {
				t.Fatalf("after %d pointers: an array of %d bytes, want %d", i+1, len(left[i]), n)
			}
		}
		if st.Recycled != 2 || st.Returned != 0 {
			t.Fatalf("after five pointers: stats %+v; want 2 recycled, none returned", st)
		}
		for _, a := range [][]byte{left[1], left[3]} {
			if bytes.Count(a, []byte{poison}) != len(a) {
				t.Fatalf("a left %d-byte array is not poisoned: % x", len(a), a)
			}
		}
		for i := range 5 {
			if vv, v := PtrAt(f.Buffer(1, 0), i); vv != block.VVBN(1000+i) || v != block.VBN(1000+i) {
				t.Fatalf("entry %d = (%v,%v) after growing", i, vv, v)
			}
		}
	})
	t.Run("re-cleaning a sealed buffer moves it to a fresh array", func(t *testing.T) {
		p := NewImagePool()
		m := newMarkMedia(p)
		f := pooled(p, true)
		b := setL0(f, 0, block.Size, 4)
		first := cleanTo(m, f, b, 100)
		f.DirtyIntoCP(b)
		second := cleanTo(m, f, b, 101)
		if &second[0] == &first[0] || &second[0] != &b.data[0] || !b.sealed {
			t.Fatal("a re-cleaned sealed buffer handed one array to two DBNs")
		}
		if !m.mark[100] || m.mark[101] || !bytes.Equal(second, pattern(4)) {
			t.Fatalf("old array marked %v, new one %v", m.mark[100], m.mark[101])
		}
	})
}

// InstallBuffer never aliases a CP-owned image, dense or sparse, so no buffer
// holds an array the pool may take back from the media. An indirect's copy
// is as long as the media's image, a metafile L0's a full block.
func TestInstallBufferNeverAliasesCPOwned(t *testing.T) {
	for _, c := range []struct {
		name  string
		meta  bool
		level int
		n     int
		want  int // length of the installed array
	}{
		{"full indirect", false, 1, block.Size / 2, block.Size / 2},
		{"sparse indirect", false, 1, 40, 40},
		{"dense metafile L0", true, 0, block.Size, block.Size},
		{"sparse metafile L0", true, 0, 40, block.Size},
	} {
		p := NewImagePool()
		f := pooled(p, c.meta)
		media := pattern(6)[:c.n]
		b := f.InstallBuffer(c.level, 0, block.Image{Bytes: media}, 50, 60)
		if &b.Data()[0] == &media[0] || b.sealed {
			t.Fatalf("%s: aliased %v, sealed %v; want a private unsealed copy", c.name, &b.Data()[0] == &media[0], b.sealed)
		}
		if !block.Equal(b.Data(), media) || len(b.Data()) != c.want {
			t.Fatalf("%s: installed %d bytes unlike the media's", c.name, len(b.Data()))
		}
	}
}

// Audit finds a marked array that is also a buffer's or sits at two DBNs,
// and a buffer's array on the media other than sealed at the buffer's own
// VBN.
func TestImagePoolAudit(t *testing.T) {
	p := NewImagePool()
	m := newMarkMedia(p)
	f := pooled(p, true)
	dense := setL0(f, 0, block.Size, 7)
	sealed := cleanTo(m, f, dense, 100)
	sparse := cleanTo(m, f, setL0(f, 1, 10, 8), 101)
	audit := func(land func(*markMedia)) error {
		c := &markMedia{img: maps.Clone(m.img), mark: maps.Clone(m.mark)}
		land(c)
		return p.Audit([]*File{f}, c.visit)
	}
	if err := audit(func(*markMedia) {}); err != nil {
		t.Fatalf("a consistent media: %v", err)
	}
	for _, c := range []struct {
		name string
		land func(*markMedia)
		want string
	}{
		{"media-only array at two DBNs", func(c *markMedia) { c.land(150, sparse, false) }, "media-only array sits at 2 DBNs"},
		{"media-only array a buffer holds", func(c *markMedia) { c.mark[100] = true }, "media-only array at vbn:100 is buffer"},
		{"sealed array elsewhere", func(c *markMedia) { c.land(102, sealed, false) }, "has its array on the media at vbn:102"},
	} {
		if err := audit(c.land); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: audit said %v, want %q", c.name, err, c.want)
		}
	}
	// The buffer leaves its sealed array, which is marked at its DBN; its new
	// array must not be on the media.
	f.DirtyIntoCP(dense)
	live := dense.CPMutableData()
	if err := audit(func(*markMedia) {}); err != nil || !m.mark[100] {
		t.Fatalf("after the buffer left its array (marked %v): %v", m.mark[100], err)
	}
	if err := audit(func(c *markMedia) { c.land(102, live, false) }); err == nil || !strings.Contains(err.Error(), "unsealed buffer") {
		t.Fatalf("an unsealed buffer's array on the media: audit said %v", err)
	}
}

// TestPreservedImageSideHome pins where a preserved CP image waits: a
// client's overwrite of a frozen L0 leaves the old image's word, a name or a
// byte image's handle, in the image pool's side home (userImages.preserved),
// keyed by file and FBN; the CP writes that image and the client reads the
// new one, and the entry leaves when the L0 is cleaned, dropped with its
// tree, or lost in a crash. An L0 has an entry exactly while its slot is
// both frozen and dirty. Audit fails an entry that outlives its clean, a
// frozen dirty slot without an entry and a byte image no word holds, and so
// does the clean of a frozen dirty slot without an entry.
func TestPreservedImageSideHome(t *testing.T) {
	p := NewImagePool()
	f := pooled(p, false)
	oldName, nextName := block.NameOf(1, 3, 0, 64), block.NameOf(1, 3, 1, 64)
	f.WriteImage(3, block.Image{Name: oldName})
	old, next := pattern(1), pattern(9)
	f.WriteBlock(4, old)
	f.Freeze()
	f.WriteImage(3, block.Image{Name: nextName})
	f.WriteBlock(4, next)
	n := &f.root
	overwritten := func(d int) bool { return n.frozen.has(d) && n.dirty.has(d) }
	if !overwritten(3) || !overwritten(4) || len(p.user.preserved) != 2 || p.user.preserved[l0Key{f, 3}] != block.Word(oldName) {
		t.Fatalf("overwrites of frozen L0s: frozen and dirty %v %v, %d entries; want both, two entries, the old name kept",
			overwritten(3), overwritten(4), len(p.user.preserved))
	}
	audit := func() error { return p.Audit([]*File{f}, func(func(block.VBN, []byte, bool)) {}) }
	if err := audit(); err != nil {
		t.Fatalf("frozen L0s' preserved images: %v", err)
	}
	img, _, _ := f.CleanL0(3, 100, 100)
	if live, _ := f.L0(3); img.Name != oldName || live.Name != nextName || overwritten(3) {
		t.Fatal("the CP did not write the preserved name, or the client does not read its overwrite")
	}
	img, _, _ = f.CleanL0(4, 101, 101)
	if &img.Bytes[0] != &old[0] || !bytes.Equal(f.ReadBlock(4), next) || overwritten(4) || len(p.user.preserved) != 0 {
		t.Fatal("the CP did not write the preserved bytes, or the entry outlived the clean")
	}
	if err := audit(); err != nil {
		t.Fatalf("after the clean: %v", err)
	}
	p.user.preserved[l0Key{f, 4}] = p.user.Put(0, block.Image{Bytes: old}) // a clean that keeps the entry
	if err := audit(); err == nil || !strings.Contains(err.Error(), "1 preserved CP images outlive their CP") {
		t.Fatalf("an entry kept past its clean: audit said %v", err)
	}
	p.user.Put(p.user.preserved[l0Key{f, 4}], block.Image{})
	delete(p.user.preserved, l0Key{f, 4})
	stray := p.user.Put(0, block.Image{Bytes: old}) // a handle no word holds
	if err := audit(); err == nil || !strings.Contains(err.Error(), "byte-image handles in use") {
		t.Fatalf("a stray handle: audit said %v", err)
	}
	p.user.Put(stray, block.Image{})
	f.CleanChild(frozenAt(f, 1)[0], 102, 102)
	f.Freeze()
	n.dirty.set(4) // frozen and dirty without an entry
	if err := audit(); err == nil || !strings.Contains(err.Error(), "frozen and dirty but has no CP image") {
		t.Fatalf("a frozen dirty L0 without an entry: audit said %v", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "frozen and dirty but has no CP image") {
				t.Fatalf("clean of a frozen dirty L0 without an entry: recovered %v, want the fault", r)
			}
		}()
		f.CleanL0(4, 103, 103)
	}()
	n.dirty.clear(4)

	// A frozen L0 dropped with its tree takes its entry with it, and a crash
	// forgets them all.
	f.WriteBlock(3, pattern(5))
	if len(p.user.preserved) != 1 {
		t.Fatalf("%d entries after a second overwrite, want 1", len(p.user.preserved))
	}
	f.Release()
	if len(p.user.preserved) != 0 || p.user.Len() != 0 {
		t.Fatalf("%d entries and %d handles after the tree was released, want 0", len(p.user.preserved), p.user.Len())
	}
	g := pooled(p, false)
	g.WriteImage(0, block.Image{Name: oldName})
	g.Freeze()
	g.WriteImage(0, block.Image{Name: nextName})
	p.Abandon()
	if len(p.user.preserved) != 0 {
		t.Fatalf("%d entries after a crash, want 0", len(p.user.preserved))
	}
}
