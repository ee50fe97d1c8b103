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
