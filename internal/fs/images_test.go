package fs

import (
	"bytes"
	"strings"
	"testing"

	"wafl/internal/block"
)

// Every length from a byte to a block maps to the smallest class that holds
// it, a class's capacity maps back to the class, and above 128 bytes a class
// wastes at most an eighth of the length.
func TestImageClasses(t *testing.T) {
	prev := 0
	for n := 1; n <= block.Size; n++ {
		c, size := classOf(n)
		if c < prev || c >= nClasses || size < n || classSize(c) != size {
			t.Fatalf("classOf(%d) = %d, %d (class size %d, previous class %d)", n, c, size, classSize(c), prev)
		}
		if n > 128 && (size-n)*8 > n {
			t.Fatalf("classOf(%d) wastes %d bytes", n, size-n)
		}
		prev = c
	}
	for c := range nClasses {
		if got, _ := classOf(classSize(c)); got != c {
			t.Fatalf("class %d of size %d maps to class %d", c, classSize(c), got)
		}
	}
	if _, size := classOf(block.Size); size != block.Size {
		t.Fatalf("a full block takes a class of %d bytes", size)
	}
}

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

// clean cleans b at vbn and returns the image handed to the media.
func clean(f *File, b *Buffer, vbn block.VBN) []byte {
	img, _, _ := f.CleanChild(b, block.VVBN(vbn), vbn)
	return img
}

// The register and return rules (DESIGN §14): an array goes back to the pool
// only once the media alone held it, and the media let go of it. Release
// stands in for raid.Group's Forget and displaced-write completion, which call
// it once the data drive and the parity row both dropped the image.
func TestImagePoolOwnership(t *testing.T) {
	t.Run("sealed array forgotten while its buffer holds it", func(t *testing.T) {
		p := NewImagePool()
		f := pooled(p, true)
		b := setL0(f, 0, block.Size, 1)
		img := clean(f, b, 100)
		if &img[0] != &b.data[0] || !b.sealed || p.MediaOnly(img) {
			t.Fatalf("dense image: aliased %v, sealed %v, media-only %v; want the buffer's own, sealed, not media-only",
				&img[0] == &b.data[0], b.sealed, p.MediaOnly(img))
		}
		// The VBN is forgotten (the block moved, or a snapshot let go of it)
		// while the buffer still holds the array.
		p.Release(img)
		if !bytes.Equal(b.Data(), pattern(1)) || p.Stats().Returned != 0 {
			t.Fatalf("forgetting the media's copy recycled the buffer's array (%d returned)", p.Stats().Returned)
		}
	})
	t.Run("sparse copy is media-only from birth and comes back poisoned", func(t *testing.T) {
		p := NewImagePool()
		f := pooled(p, true)
		b := setL0(f, 0, 100, 2)
		img := clean(f, b, 100)
		if len(img) > sparseMax || &img[0] == &b.data[0] || b.sealed || !p.MediaOnly(img) {
			t.Fatalf("sparse image of %d bytes: aliased %v, sealed %v, media-only %v", len(img), &img[0] == &b.data[0], b.sealed, p.MediaOnly(img))
		}
		p.Release(img)
		if p.MediaOnly(img) || p.Stats().Returned != 1 || p.Stats().MediaOnly != 0 {
			t.Fatalf("released copy: media-only %v, stats %+v", p.MediaOnly(img), p.Stats())
		}
		if bytes.Count(img, []byte{poison}) != len(img) {
			t.Fatalf("released array is not poisoned: % x", img[:8])
		}
		// The next copy of its class reuses it, and holds its own bytes.
		b2 := setL0(f, 1, len(img), 3)
		img2 := clean(f, b2, 101)
		if &img2[0] != &img[0] || !bytes.Equal(img2, block.Trim(pattern(3)[:len(img)])) {
			t.Fatal("the next copy of the class did not reuse the released array, or kept its poison")
		}
		if !bytes.Equal(b.Data()[:100], pattern(2)[:100]) {
			t.Fatal("releasing the copy touched the buffer")
		}
	})
	t.Run("sealed array the buffer leaves becomes media-only", func(t *testing.T) {
		p := NewImagePool()
		f := pooled(p, false)
		for fbn := range block.PtrsPerBlock {
			f.WriteBlock(block.FBN(fbn), pattern(byte(fbn))[:64])
		}
		f.Freeze()
		for i, l0 := range f.FrozenLevel(0) {
			clean(f, l0, block.VBN(1000+i))
		}
		l1 := f.FrozenLevel(1)[0]
		img := clean(f, l1, 100)
		if !l1.sealed || p.MediaOnly(img) {
			t.Fatal("a dense L1 was not sealed, or was registered while its buffer holds it")
		}
		f.DirtyIntoCP(l1)
		recycled := p.Stats().Recycled
		d := l1.ptrs(block.PtrSize)
		if &d[0] == &img[0] || !p.MediaOnly(img) || p.Stats().Recycled != recycled {
			t.Fatalf("next pointer into a sealed L1: in place %v, old array media-only %v, %d recycled",
				&d[0] == &img[0], p.MediaOnly(img), p.Stats().Recycled-recycled)
		}
		want := bytes.Clone(d)
		p.Release(img)
		if !bytes.Equal(l1.Data(), want) || p.Stats().Returned != 1 {
			t.Fatal("releasing the left array did not return it, or touched the buffer's new one")
		}
	})
	t.Run("a growing indirect recycles the private array it leaves", func(t *testing.T) {
		p := NewImagePool()
		f := pooled(p, false)
		for fbn := range 3 {
			f.WriteBlock(block.FBN(fbn), pattern(byte(fbn))[:64])
		}
		f.Freeze()
		var left [][]byte
		for i, l0 := range f.FrozenLevel(0) {
			clean(f, l0, block.VBN(1000+i))
			left = append(left, f.Buffer(1, 0).data)
		}
		// 16, 32 and 64 bytes: the first two were left, poisoned and counted
		// apart from the media's returns.
		st := p.Stats()
		if len(left[2]) != 3*block.PtrSize+block.PtrSize || st.Recycled != 2 || st.Returned != 0 || st.MediaOnly != 0 {
			t.Fatalf("after three pointers: an array of %d bytes, stats %+v; want 64 bytes, 2 recycled, none returned", len(left[2]), st)
		}
		for _, a := range left[:2] {
			if bytes.Count(a, []byte{poison}) != len(a) {
				t.Fatalf("a left %d-byte array is not poisoned: % x", len(a), a)
			}
		}
		for i := range 3 {
			if vv, v := PtrAt(f.Buffer(1, 0), i); vv != block.VVBN(1000+i) || v != block.VBN(1000+i) {
				t.Fatalf("entry %d = (%v,%v) after growing", i, vv, v)
			}
		}
	})
	t.Run("re-cleaning a sealed buffer moves it to a fresh array", func(t *testing.T) {
		p := NewImagePool()
		f := pooled(p, true)
		b := setL0(f, 0, block.Size, 4)
		first := clean(f, b, 100)
		f.DirtyIntoCP(b)
		second := clean(f, b, 101)
		if &second[0] == &first[0] || &second[0] != &b.data[0] || !b.sealed {
			t.Fatal("a re-cleaned sealed buffer handed one array to two DBNs")
		}
		if !p.MediaOnly(first) || p.MediaOnly(second) || !bytes.Equal(second, pattern(4)) {
			t.Fatalf("old array media-only %v, new one %v", p.MediaOnly(first), p.MediaOnly(second))
		}
	})
	t.Run("a client's adopted array is never registered", func(t *testing.T) {
		p := NewImagePool()
		f := pooled(p, false)
		data := pattern(5)
		b := f.WriteBlock(0, data)
		f.Freeze()
		img := clean(f, b, 100)
		b.CPMutableData()
		if &img[0] != &data[0] || p.MediaOnly(img) || p.Stats().MediaOnly != 0 {
			t.Fatal("a client's adopted L0 reached the registry")
		}
	})
}

// InstallBuffer never aliases a CP-owned image, dense or sparse, so no buffer
// holds an array the pool may take back from the media; a user L0 is adopted.
// A sparse indirect's copy is as long as the media's image, every other
// CP-owned copy a full block.
func TestInstallBufferNeverAliasesCPOwned(t *testing.T) {
	for _, c := range []struct {
		name  string
		meta  bool
		level int
		n     int
		alias bool
		want  int // length of the installed array
	}{
		{"dense indirect", false, 1, block.Size, false, block.Size},
		{"sparse indirect", false, 1, 40, false, 40},
		{"dense metafile L0", true, 0, block.Size, false, block.Size},
		{"sparse metafile L0", true, 0, 40, false, block.Size},
		{"dense user L0", false, 0, block.Size, true, block.Size},
	} {
		p := NewImagePool()
		f := pooled(p, c.meta)
		media := pattern(6)[:c.n]
		b := f.InstallBuffer(c.level, 0, media, 50, 60)
		if aliased := &b.Data()[0] == &media[0]; aliased != c.alias || aliased != b.sealed {
			t.Fatalf("%s: aliased %v, sealed %v; want aliased %v", c.name, aliased, b.sealed, c.alias)
		}
		if !block.Equal(b.Data(), media) || len(b.Data()) != c.want {
			t.Fatalf("%s: installed %d bytes unlike the media's", c.name, len(b.Data()))
		}
	}
}

// Audit finds a media-only array that is on no DBN or on two, and a buffer's
// array on the media other than sealed at the buffer's own VBN.
func TestImagePoolAudit(t *testing.T) {
	p := NewImagePool()
	f := pooled(p, true)
	dense := setL0(f, 0, block.Size, 7)
	sealed := clean(f, dense, 100)
	sparse := clean(f, setL0(f, 1, 10, 8), 101)
	audit := func(media map[block.VBN][]byte) error {
		return p.Audit([]*File{f}, func(visit func(block.VBN, []byte)) {
			for vbn := block.VBN(0); vbn < 200; vbn++ {
				if img := media[vbn]; img != nil {
					visit(vbn, img)
				}
			}
		})
	}
	if err := audit(map[block.VBN][]byte{100: sealed, 101: sparse}); err != nil {
		t.Fatalf("a consistent media: %v", err)
	}
	for _, c := range []struct {
		name  string
		media map[block.VBN][]byte
		want  string
	}{
		{"media-only array dropped", map[block.VBN][]byte{100: sealed}, "1 media-only arrays sit at no DBN"},
		{"media-only array at two DBNs", map[block.VBN][]byte{100: sealed, 101: sparse, 150: sparse}, "media-only array sits at 2 DBNs"},
		{"sealed array elsewhere", map[block.VBN][]byte{102: sealed, 101: sparse}, "has its array on the media at vbn:102"},
	} {
		if err := audit(c.media); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: audit said %v, want %q", c.name, err, c.want)
		}
	}
	// The buffer leaves its sealed array; its new array must not be on the
	// media, and the left one is media-only at its DBN.
	f.DirtyIntoCP(dense)
	live := dense.CPMutableData()
	if err := audit(map[block.VBN][]byte{100: sealed, 101: sparse}); err != nil {
		t.Fatalf("after the buffer left its array: %v", err)
	}
	if err := audit(map[block.VBN][]byte{100: sealed, 101: sparse, 102: live}); err == nil || !strings.Contains(err.Error(), "unsealed buffer") {
		t.Fatalf("an unsealed buffer's array on the media: audit said %v", err)
	}
}
