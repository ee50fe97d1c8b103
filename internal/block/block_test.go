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

// An entry holds any 32-bit address below AddrLimit, and either sentinel,
// in 8 bytes: the entries beside it keep theirs.
func TestPtrRoundTripQuick(t *testing.T) {
	b := New()
	addr := func(a uint32, sentinel uint8) uint64 {
		switch {
		case sentinel%4 == 0:
			return uint64(InvalidVBN)
		case a == AddrLimit:
			return AddrLimit - 1
		}
		return uint64(a)
	}
	f := func(idx uint8, vvbn, vbn uint32, sv, sp uint8) bool {
		i := int(idx) % PtrsPerBlock
		wv, wp := VVBN(addr(vvbn, sv)), VBN(addr(vbn, sp))
		before := Clone(b)
		PutPtr(b, i, wv, wp)
		gv, gp := GetPtr(b, i)
		clear(before[i*PtrSize : (i+1)*PtrSize])
		after := Clone(b)
		clear(after[i*PtrSize : (i+1)*PtrSize])
		return gv == wv && gp == wp && bytes.Equal(before, after)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if vv, v := GetPtr(b[:0], 0); vv != 0 || v != 0 {
		t.Fatalf("an empty image's entry is (%v,%v), want a hole", vv, v)
	}
}

// An address entry is 4 little-endian bytes at 4i: 0 and the largest real
// address hold themselves, the invalid sentinel is 0xFFFFFFFF, and each
// reads back as written; an entry past a short image's end reads as 0. An
// address no entry holds panics rather than truncate.
func TestAddrRoundTrip(t *testing.T) {
	b := make([]byte, 4*AddrSize)
	for i, c := range []struct {
		addr uint64
		enc  []byte
	}{
		{0, []byte{0, 0, 0, 0}},
		{AddrLimit - 1, []byte{0xFE, 0xFF, 0xFF, 0xFF}},
		{uint64(InvalidVBN), []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		{0x01020304, []byte{4, 3, 2, 1}},
	} {
		PutAddr(b, i, c.addr)
		if got := b[i*AddrSize : (i+1)*AddrSize]; !bytes.Equal(got, c.enc) {
			t.Errorf("entry %d of address %#x is % x; want % x", i, c.addr, got, c.enc)
		}
	}
	for i, want := range []uint64{0, AddrLimit - 1, uint64(InvalidVBN), 0x01020304} {
		if got := GetAddr(b, i); got != want {
			t.Errorf("entry %d reads %#x; want %#x", i, got, want)
		}
	}
	if got := GetAddr(b[:6], 1); got != 0xFFFE {
		t.Errorf("an entry cut after 2 bytes reads %#x; want its zero-padded twin 0xFFFE", got)
	}
	if got := GetAddr(b[:4], 1); got != 0 {
		t.Errorf("an entry past the image reads %#x; want 0", got)
	}
	for _, a := range []uint64{AddrLimit, 1 << 40, uint64(InvalidVBN) - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PutAddr of address %#x did not panic", a)
				}
			}()
			PutAddr(b, 0, a)
		}()
	}
}

// A full indirect is half a block, and an address a pointer cannot hold is
// an invariant violation: PutPtr panics rather than truncate it.
func TestPtrFormat(t *testing.T) {
	if PtrSize != 8 || PtrsPerBlock*PtrSize != Size/2 {
		t.Fatalf("a full indirect is %d entries of %d bytes; want 256 of 8, half a block", PtrsPerBlock, PtrSize)
	}
	b := New()
	PutPtr(b, 1, InvalidVVBN, 7)
	if got := Trim(b); len(got) != 13 || got[8] != 0xFF || got[11] != 0xFF || got[12] != 7 {
		t.Fatalf("entry 1 of (invalid, 7) is % x; want 0xFFFFFFFF at bytes 8-11, 7 at 12", got)
	}
	panics := func(put func()) (p bool) {
		defer func() { p = recover() != nil }()
		put()
		return false
	}
	for _, a := range []uint64{AddrLimit, AddrLimit + 1, 1 << 40, uint64(InvalidVBN) - 1} {
		if !panics(func() { PutPtr(b, 0, 1, VBN(a)) }) || !panics(func() { PutPtr(b, 0, VVBN(a), 1) }) {
			t.Errorf("PutPtr of address %d as a VBN or a VVBN did not panic", a)
		}
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

// l1With returns an indirect block holding n pointers in its first entries,
// every fourth VVBN the invalid sentinel (an aggregate metafile's).
func l1With(n int) []byte {
	b := New()
	for i := 0; i < n; i++ {
		vvbn := VVBN(1<<20 + i)
		if i%4 == 3 {
			vvbn = InvalidVVBN
		}
		PutPtr(b, i, vvbn, VBN(3<<24+i))
	}
	return b
}

// FuzzGetPtrPrefix checks the short-image rule for indirect blocks: any
// prefix of an image decodes, entry by entry, as its zero-padded twin.
func FuzzGetPtrPrefix(f *testing.F) {
	for _, n := range []int{0, 1, 64, 255, 256} {
		img := l1With(n)
		m := len(Trim(img))
		f.Add(img, m)              // as the media keeps it
		f.Add(img, max(m-5, 0))    // cut inside an entry's VVBN
		f.Add(img, max(m-2, 0))    // cut inside its VBN
		f.Add(img, min(m+1, Size)) // past the last entry
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

// BenchmarkTrim cuts the zero tail of a sparse L1 (40 pointers, 3.7 KiB of
// zeros) and of a dense one (every pointer, 2 KiB of zeros).
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

// TestImageIsANameOrBytes: ImageOf builds an image from a name or from
// bytes, the nil image from neither, and refuses both, so no reader has to
// pick which field wins.
func TestImageIsANameOrBytes(t *testing.T) {
	n := NameOf(7, 3, 1, 64)
	if img := ImageOf(n, nil); img.Name != n || img.Bytes != nil || img.Len() != 64 {
		t.Fatalf("ImageOf(name, nil) = %+v", img)
	}
	if img := ImageOf(0, []byte{}); img.Name != 0 || img.Bytes == nil || img.IsNil() {
		t.Fatalf("ImageOf(0, empty) = %+v, want the zero block written", img)
	}
	if !ImageOf(0, nil).IsNil() {
		t.Fatal("ImageOf(0, nil) is not the nil image")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ImageOf with a name and bytes did not panic")
		}
	}()
	ImageOf(n, []byte{})
}
