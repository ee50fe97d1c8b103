package block

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPtrRoundTrip(t *testing.T) {
	b := New()
	for i := 0; i < PtrsPerBlock; i++ {
		PutPtr(b, i, VVBN(i*3+1), VBN(i*7+2))
	}
	for i := 0; i < PtrsPerBlock; i++ {
		vvbn, vbn := GetPtr(b, i)
		if vvbn != VVBN(i*3+1) || vbn != VBN(i*7+2) {
			t.Fatalf("entry %d = (%v,%v)", i, vvbn, vbn)
		}
	}
}

func TestPtrRoundTripQuick(t *testing.T) {
	b := New()
	f := func(idx uint8, vvbn, vbn uint64) bool {
		i := int(idx) % PtrsPerBlock
		PutPtr(b, i, VVBN(vvbn), VBN(vbn))
		gv, gp := GetPtr(b, i)
		return gv == VVBN(vvbn) && gp == VBN(vbn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDistinguishesContent(t *testing.T) {
	a, b := New(), New()
	if Checksum(a) != Checksum(b) {
		t.Fatal("identical blocks must have identical checksums")
	}
	b[100] = 1
	if Checksum(a) == Checksum(b) {
		t.Fatal("different blocks should (overwhelmingly) differ in checksum")
	}
}

func TestXORIsInvolution(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a, b := New(), New()
		for i := range a {
			a[i] = byte(seedA >> (uint(i) % 56))
			b[i] = byte(seedB >> (uint(i) % 48))
		}
		orig := Clone(a)
		XOR(a, b)
		if bytes.Equal(a, orig) && Checksum(b) != Checksum(New()) {
			return false
		}
		XOR(a, b)
		return bytes.Equal(a, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestXORParityReconstruction(t *testing.T) {
	// parity = d0^d1^d2; any lost block is recoverable as parity ^ others.
	d := make([][]byte, 3)
	for i := range d {
		d[i] = New()
		for j := range d[i] {
			d[i][j] = byte(i*31 + j)
		}
	}
	parity := New()
	for _, blk := range d {
		XOR(parity, blk)
	}
	rec := Clone(parity)
	XOR(rec, d[0])
	XOR(rec, d[2])
	if !bytes.Equal(rec, d[1]) {
		t.Fatal("reconstruction of d1 from parity failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New()
	a[0] = 42
	c := Clone(a)
	c[0] = 7
	if a[0] != 42 {
		t.Fatal("Clone must not alias")
	}
}

func TestInvalidSentinels(t *testing.T) {
	if InvalidVBN.String() != "vbn:invalid" || InvalidVVBN.String() != "vvbn:invalid" {
		t.Fatal("sentinel String() values wrong")
	}
	if VBN(5).String() != "vbn:5" {
		t.Fatalf("VBN(5) = %s", VBN(5).String())
	}
}

// A trimmed image and its Size-padded twin must be indistinguishable to
// Equal, Checksum and XOR, wherever the trim point falls.
func TestTrimmedImageMatchesPaddedTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(Size + 1)
		short := make([]byte, n)
		rng.Read(short)
		if i%4 == 0 && n > 8 {
			clear(short[n-rng.Intn(8)-1:]) // zeros at the trim point itself
		}
		padded := Clone(short)
		if !Equal(short, padded) || !Equal(padded, short) {
			t.Fatalf("len %d: image != padded twin", n)
		}
		if Checksum(short) != Checksum(padded) {
			t.Fatalf("len %d: checksum differs from padded twin", n)
		}
		acc := New()
		rng.Read(acc)
		viaShort, viaPadded := Clone(acc), Clone(acc)
		XOR(viaShort, short)
		XOR(viaPadded, padded)
		if !bytes.Equal(viaShort, viaPadded) {
			t.Fatalf("len %d: XOR differs from padded twin", n)
		}
		if n > 0 && short[n-1] != 0 {
			other := Clone(short)
			other[rng.Intn(n)] ^= 1
			if Equal(short, other) || Equal(short[:n-1], padded) {
				t.Fatalf("len %d: Equal missed a difference", n)
			}
		}
	}
	if !Equal(nil, New()) || Checksum(nil) != Checksum(New()) {
		t.Fatal("nil must be the all-zero block")
	}
}

// trimBytes is the byte-at-a-time loop Trim must agree with.
func trimBytes(p []byte) []byte {
	for len(p) > 0 && p[len(p)-1] == 0 {
		p = p[:len(p)-1]
	}
	return p
}

// Trim's chunked cut lands exactly where the byte loop does, whatever the
// lengths of the image and of its zero tail: on dense bodies, and on lone
// bytes in long zero runs, many of them near the end.
func TestTrimMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := make([]byte, rng.Intn(Size+1))
		switch {
		case len(p) == 0:
		case i%2 == 0:
			rng.Read(p)
			clear(p[rng.Intn(len(p)+1):])
		default:
			for k := rng.Intn(4); k >= 0; k-- {
				p[rng.Intn(len(p))] = byte(1 + rng.Intn(255))
			}
			p[len(p)-1-rng.Intn(min(len(p), 300))] = byte(1 + rng.Intn(255))
		}
		if got, want := Trim(p), trimBytes(p); len(got) != len(want) {
			t.Fatalf("image of %d bytes: Trim keeps %d, the byte loop %d", len(p), len(got), len(want))
		}
	}
}

// l1With returns an indirect block holding n pointers in its first entries.
func l1With(n int) []byte {
	b := New()
	for i := 0; i < n; i++ {
		PutPtr(b, i, VVBN(1<<20+i), VBN(3<<24+i))
	}
	return b
}

// FuzzGetPtrPrefix checks the short-image rule for indirect blocks: any
// prefix of an image decodes, entry by entry, as its zero-padded twin.
func FuzzGetPtrPrefix(f *testing.F) {
	for _, n := range []int{0, 1, 64, 255, 256} {
		img := l1With(n)
		f.Add(img, len(Trim(img)))            // as the media keeps it
		f.Add(img, max(len(Trim(img))-11, 0)) // cut inside an entry
	}
	f.Fuzz(func(t *testing.T, img []byte, n int) {
		if len(img) > Size {
			img = img[:Size]
		}
		if n < 0 || n > len(img) {
			return
		}
		prefix := img[:n]
		padded := Clone(prefix)
		for i := 0; i < PtrsPerBlock; i++ {
			gv, gp := GetPtr(prefix, i)
			wv, wp := GetPtr(padded, i)
			if gv != wv || gp != wp {
				t.Fatalf("prefix of %d bytes, entry %d: (%v,%v), padded (%v,%v)", n, i, gv, gp, wv, wp)
			}
		}
	})
}

// BenchmarkTrim cuts the zero tail of a sparse L1 (40 pointers, 3.4 KiB of
// zeros) and of a dense one (a few bytes).
func BenchmarkTrim(b *testing.B) {
	for _, c := range []struct {
		name string
		img  []byte
	}{{"sparse", l1With(40)}, {"dense", l1With(PtrsPerBlock)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trimSink = Trim(c.img)
			}
		})
	}
}

var trimSink []byte
