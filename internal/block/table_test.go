package block

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"wafl/internal/allocs"
)

// TestByteImageHandles pins what a byte image costs beyond its word: a
// handle into the table, held while the word holds a byte image. Bytes put
// over a word that holds a handle reuse it; bytes put over one that holds
// none take a handle a name or a nil image freed, if there is one; neither
// allocates. Only bytes past every handle made grow the table, a page of
// tablePage handles at a time that is never copied: 24 bytes a handle, and
// no object per image.
func TestByteImageHandles(t *testing.T) {
	const n = 1024
	var tab Table
	words := make([]Word, 2*n)
	img := make([]byte, Size)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range n {
		words[i] = tab.Put(words[i], Image{Bytes: img})
	}
	runtime.ReadMemStats(&after)
	if tab.made != n || len(tab.free) != 0 || tab.Len() != n {
		t.Fatalf("%d fresh byte images: %d handles, %d free, %d in use; want %d, 0, %d", n, tab.made, len(tab.free), tab.Len(), n, n)
	}
	// A page per tablePage images and the page list: a few objects, and 24
	// bytes an image; a table grown by append would copy itself, allocating
	// about twice that.
	objs, perImage := after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/n
	if objs >= n/64 || perImage > 40 {
		t.Fatalf("%d fresh byte images allocate %d objects and %.0f bytes each, want under %d objects and at most 40 bytes", n, objs, perImage, n/64)
	}
	short := make([]byte, 100)
	i := 0
	if got := allocs.Count(n-1, func() { words[i%n] = tab.Put(words[i%n], Image{Bytes: short}); i += 7 }); got != 0 {
		t.Fatalf("%d byte images over byte images allocate %d objects, want 0", n, got)
	}
	if tab.made != n {
		t.Fatalf("rewrites grew the table to %d handles", tab.made)
	}
	// A name and a nil image each free their word's handle, and words that
	// hold none take the freed handles before the table grows.
	for i := 0; i < n; i += 2 {
		words[i] = tab.Put(words[i], Image{Name: NameOf(1, FBN(i), 0, 64)})
		words[i+1] = tab.Put(words[i+1], Image{})
	}
	if len(tab.free) != n || tab.Len() != 0 {
		t.Fatalf("%d handles free, %d in use after names and nil images over every byte image, want %d, 0", len(tab.free), tab.Len(), n)
	}
	i = n
	if got := allocs.Count(n-1, func() { words[i] = tab.Put(words[i], Image{Bytes: img}); i++ }); got != 0 {
		t.Fatalf("%d byte images on empty words with handles free allocate %d objects, want 0", n, got)
	}
	if tab.made != n || len(tab.free) != 0 {
		t.Fatalf("after refilling: %d handles, %d free; want %d, 0", tab.made, len(tab.free), n)
	}
	for i, w := range words {
		got := tab.Image(w)
		switch {
		case i >= n:
			if len(got.Bytes) != len(img) || &got.Bytes[0] != &img[0] {
				t.Fatalf("word %d reads %d bytes, not the image it took a freed handle for", i, len(got.Bytes))
			}
		case i%2 == 0:
			if got.Name != NameOf(1, FBN(i), 0, 64) {
				t.Fatalf("word %d reads %+v, not its name", i, got)
			}
		case !got.IsNil() || w != 0:
			t.Fatalf("word %d (%#x), put nil, reads %d bytes", i, w, got.Len())
		}
	}
}

// TestTableMatchesMap drives seeded histories of Puts — bytes, names, nil
// and empty images, over words whose holder may have set HolderBit — against
// a reference map: every word reads the image last put (the very array), the
// table's Len is the words holding bytes, and it never makes more handles
// than were ever in use at once.
func TestTableMatchesMap(t *testing.T) {
	for seed := range uint64(8) {
		rng := rand.New(rand.NewPCG(seed, 0))
		var tab Table
		words := make([]Word, 64)
		want := map[int]Image{}
		peak := 0
		for step := range 4000 {
			i := rng.IntN(len(words))
			if rng.IntN(4) == 0 && words[i] != 0 {
				words[i] |= HolderBit
			}
			var img Image
			switch rng.IntN(5) {
			case 0:
				img = Image{Bytes: make([]byte, 1+rng.IntN(Size))}
			case 1:
				img = Image{Bytes: []byte{}}
			case 2:
				img = Image{Name: NameOf(rng.Uint64(), FBN(rng.Uint64()), byte(rng.Uint32()), 1+rng.IntN(Size))}
			}
			words[i] = tab.Put(words[i], img)
			if words[i]&HolderBit != 0 {
				t.Fatalf("seed %d step %d: Put returned %#x, with HolderBit set", seed, step, words[i])
			}
			if img.IsNil() {
				delete(want, i)
			} else {
				want[i] = img
			}
			inUse := 0
			for j, w := range words {
				got, ref := tab.Image(w), want[j]
				if got.Name != ref.Name || len(got.Bytes) != len(ref.Bytes) || (got.Bytes == nil) != (ref.Bytes == nil) ||
					len(ref.Bytes) > 0 && &got.Bytes[0] != &ref.Bytes[0] {
					t.Fatalf("seed %d step %d: word %d (%#x) reads %d bytes / name %#x, want %d bytes / name %#x",
						seed, step, j, w, len(got.Bytes), got.Name, len(ref.Bytes), ref.Name)
				}
				if ref.Bytes != nil {
					inUse++
				}
			}
			peak = max(peak, inUse)
			if tab.Len() != inUse || tab.made > peak {
				t.Fatalf("seed %d step %d: %d handles in use, %d made; want %d in use, at most %d made", seed, step, tab.Len(), tab.made, inUse, peak)
			}
		}
	}
}

// TestNamesLeaveHolderBit checks that no name sets the bit a word's holder
// keeps, and that every name reads back as itself from a word, HolderBit set
// or not.
func TestNamesLeaveHolderBit(t *testing.T) {
	var tab Table
	rng := rand.New(rand.NewPCG(1, 2))
	check := func(ino uint64, fbn FBN, tag byte, n int) {
		name := NameOf(ino, fbn, tag, n)
		if Word(name)&HolderBit != 0 {
			t.Fatalf("NameOf(%d, %d, %d, %d) = %#x sets HolderBit", ino, fbn, tag, n, name)
		}
		for _, w := range []Word{Word(name), Word(name) | HolderBit} {
			if got := tab.Image(w); got.Name != name || got.Bytes != nil {
				t.Fatalf("word %#x reads %+v, want name %#x", w, got, name)
			}
		}
	}
	for n := 1; n <= Size; n++ {
		check(^uint64(0), ^FBN(0), 0xFF, n)
		check(rng.Uint64(), FBN(rng.Uint64()), byte(rng.Uint32()), n)
	}
	if tab.made != 0 {
		t.Fatalf("reading names made %d handles", tab.made)
	}
}
