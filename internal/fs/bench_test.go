package fs

import (
	"testing"

	"wafl/internal/block"
)

// Package benchmarks for four things the data path asks of a File:
// create-and-dirty on first write, find a resident L0, carry a dirty set
// through one consistency point, and re-clean a small file's sparse L1.
// `make benchsmoke` runs each once so they cannot rot; for numbers use
//
//	go test -run '^$' -bench . -benchmem -count 10 ./internal/fs

var (
	sinkBuf *Buffer
	sinkOK  bool
)

// BenchmarkSeqWriteFreshFile is one op = 8192 sequential 64-byte WriteBlocks
// into a new height-2 file: index growth, slot arrays, byte-image handles
// and the dirty bits.
func BenchmarkSeqWriteFreshFile(b *testing.B) {
	const blocks = 8192
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewFile(1, HeightFor(blocks))
		for fbn := block.FBN(0); fbn < blocks; fbn++ {
			sinkBuf = f.WriteBlock(fbn, payload)
		}
	}
}

// BenchmarkBufferLookupRandom is one op = one L0(fbn) on a 65536-block
// height-2 file whose every L0 is dirty, FBNs in a scattered order.
func BenchmarkBufferLookupRandom(b *testing.B) {
	const blocks = 1 << 16
	payload := make([]byte, 64)
	f := NewFile(1, 2)
	for fbn := block.FBN(0); fbn < blocks; fbn++ {
		f.WriteBlock(fbn, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	fbn := block.FBN(0)
	for i := 0; i < b.N; i++ {
		_, sinkOK = f.L0(fbn)
		fbn = (fbn + 40503) % blocks
	}
}

// BenchmarkFreezeCleanRound is one op = one CP over 4096 dirty L0s of a
// resident file: overwrite them all, Freeze, then clean the L0s in FBN
// order (NextFrozenL0 + CleanL0) and FrozenLevel + CleanChild above.
func BenchmarkFreezeCleanRound(b *testing.B) {
	const blocks = 4096
	payload := make([]byte, 64)
	f := NewFile(1, 2)
	round := func() {
		for fbn := block.FBN(0); fbn < blocks; fbn++ {
			f.WriteBlock(fbn, payload)
		}
		f.Freeze()
		loc := uint64(1)
		for fbn, ok := f.NextFrozenL0(0, blocks); ok; fbn, ok = f.NextFrozenL0(fbn+1, blocks) {
			f.CleanL0(fbn, block.VVBN(loc), block.VBN(loc))
			loc++
		}
		for level := 1; level <= f.Height(); level++ {
			for _, buf := range f.FrozenLevel(level) {
				f.CleanChild(buf, block.VVBN(loc), block.VBN(loc))
				loc++
			}
		}
	}
	round() // make every node, buffer and list resident
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkCleanSparseIndirect is one op = one CP over a 64-block file whose
// L1 comes from the media, as after a mount: install the L1's 64-pointer
// image, overwrite the 64 L0s, Freeze, then clean them and the L1. The file
// has no image pool, so -benchmem's B/op is every array the L1 takes: ~1 KiB
// while a sparse indirect keeps an array of its image's length and hands it
// to the media sealed, a 4 KiB block plus a trimmed copy when it kept a full
// block.
func BenchmarkCleanSparseIndirect(b *testing.B) {
	const ptrs = 64
	payload := make([]byte, 64)
	f := NewFile(1, 1)
	var img []byte
	round := func() {
		for fbn := block.FBN(0); fbn < ptrs; fbn++ {
			f.WriteBlock(fbn, payload)
		}
		f.Freeze()
		loc := uint64(1)
		for fbn, ok := f.NextFrozenL0(0, ptrs); ok; fbn, ok = f.NextFrozenL0(fbn+1, ptrs) {
			f.CleanL0(fbn, block.VVBN(loc), block.VBN(loc))
			loc++
		}
		out, _, _, _ := f.CleanChild(f.FrozenLevel(1)[0], block.VVBN(loc), block.VBN(loc))
		img = out.Bytes
	}
	round() // make every node, buffer and list resident
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.InstallBuffer(1, 0, block.Image{Bytes: img}, block.VVBN(ptrs+1), block.VBN(ptrs+1))
		round()
	}
}
