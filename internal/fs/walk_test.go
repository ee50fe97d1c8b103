package fs

import (
	"slices"
	"testing"

	"wafl/internal/block"
)

// fakeMedia serves one of a few images for every VBN, picked by vbn modulo
// their number, so any pointer an image holds lands on a block.
type fakeMedia [][]byte

func (m fakeMedia) ReadVBNRaw(vbn block.VBN) []byte { return m[uint64(vbn)%uint64(len(m))] }

type visit struct {
	level int
	idx   block.FBN
	vvbn  block.VVBN
	vbn   block.VBN
}

// refWalk is the recursive walker each media reader used to carry: every
// entry of an indirect block in slot order, holes skipped, each child's
// subtree before its next sibling.
func refWalk(m fakeMedia, level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN, out *[]visit) {
	*out = append(*out, visit{level, idx, vvbn, vbn})
	if level == 0 {
		return
	}
	data := m.ReadVBNRaw(vbn)
	for i := 0; i < block.PtrsPerBlock; i++ {
		cvv, cvbn := block.GetPtr(data, i)
		if cvbn == 0 || cvbn == block.InvalidVBN {
			continue
		}
		refWalk(m, level-1, idx*block.PtrsPerBlock+block.FBN(i), cvv, cvbn, out)
	}
}

// ptrImage is an indirect image whose entry i points at vbns[i], trimmed as
// the media keeps a sparse indirect.
func ptrImage(vbns ...block.VBN) []byte {
	b := block.New()
	for i, vbn := range vbns {
		block.PutPtr(b, i, block.VVBN(1<<20+i), vbn)
	}
	return block.Trim(b)
}

// FuzzWalk builds trees of height 1 and 2 whose indirect blocks are
// fuzzer-chosen images (the root is served for VBNs ≡ 0 mod 3, the other two
// for ≡ 1 and ≡ 2) and checks that File.Walk visits what the reference
// recursive walk visits, in the same order, each position once and never a
// hole; and that File.Resolve, installing the path as it goes, finds the
// L0 address Walk found for every FBN, and a hole for every other.
func FuzzWalk(f *testing.F) {
	dense := make([]block.VBN, block.PtrsPerBlock)
	for i := range dense {
		dense[i] = block.VBN(3<<24 + i)
	}
	f.Add(uint8(0), ptrImage(4, 5, 0, 7), []byte{}, []byte{})
	f.Add(uint8(1), ptrImage(4, 0, block.InvalidVBN, 8, 3), ptrImage(10, 11, 0, 12), block.Clone(ptrImage(dense...)))
	f.Add(uint8(1), ptrImage(1, 2, 4, 5)[:50], ptrImage(0, 0, 9, 10)[:40], ptrImage(dense[:100]...))
	f.Add(uint8(1), ptrImage(dense...), ptrImage(dense[:3]...), []byte{})
	f.Fuzz(func(t *testing.T, height uint8, root, a, b []byte) {
		m := fakeMedia{root, a, b}
		for i, img := range m {
			m[i] = append([]byte{}, img[:min(len(img), block.Size)]...) // never nil: every block is on the media
		}
		file := NewFile(1, 1+int(height%2))
		file.RootVVBN, file.RootVBN = 7, 3

		var want, got []visit
		refWalk(m, file.Height(), 0, file.RootVVBN, file.RootVBN, &want)
		file.Walk(func(level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) []byte {
			got = append(got, visit{level, idx, vvbn, vbn})
			return m.ReadVBNRaw(vbn)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("Walk visited %d blocks, the reference walk %d; first difference at %d", len(got), len(want), firstDiff(got, want))
		}

		seen := map[pos]bool{}
		l0 := map[block.FBN]visit{}
		for i, v := range got {
			if hole(v.vbn) {
				t.Fatalf("visit %d is a hole: %+v", i, v)
			}
			if seen[pos{v.level, v.idx}] {
				t.Fatalf("(level %d, index %d) visited twice", v.level, v.idx)
			}
			seen[pos{v.level, v.idx}] = true
			if v.level == 0 {
				l0[v.idx] = v
			}
		}
		for fbn := block.FBN(0); fbn < block.FBN(file.MaxBlocks()); fbn++ {
			vvbn, vbn, ok := file.Resolve(fbn, m)
			w, data := l0[fbn]
			if ok != data || ok && (vvbn != w.vvbn || vbn != w.vbn) {
				t.Fatalf("fbn %d: Resolve gives (%v, %v, %v), Walk (%v, %v, %v)", fbn, vvbn, vbn, ok, w.vvbn, w.vbn, data)
			}
		}
	})
}

func firstDiff(a, b []visit) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
