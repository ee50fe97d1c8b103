package fs

import (
	"testing"

	"wafl/internal/block"
)

// Package benchmarks for the five things the data path asks of a File and
// its image pool: create-and-dirty on first write, find a resident buffer,
// carry a dirty set through one consistency point, re-clean a small file's
// sparse L1, and recycle a client's payload. `make benchsmoke` runs each
// once so they cannot rot; for numbers use
//
//	go test -run '^$' -bench . -benchmem -count 10 ./internal/fs

var (
	sinkBuf  *Buffer
	sinkBufs []*Buffer
)

// BenchmarkSeqWriteFreshFile is one op = 8192 sequential 64-byte WriteBlocks
// into a new height-2 file: index growth, buffer creation and the open
// generation's dirty list.
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

// BenchmarkBufferLookupRandom is one op = one Buffer(0, fbn) on a fully
// resident 65536-block height-2 file, FBNs in a scattered order.
func BenchmarkBufferLookupRandom(b *testing.B) {
	const blocks = 1 << 16
	f := NewFile(1, 2)
	for fbn := block.FBN(0); fbn < blocks; fbn++ {
		f.GetOrCreateL0(fbn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	fbn := block.FBN(0)
	for i := 0; i < b.N; i++ {
		sinkBuf = f.Buffer(0, fbn)
		fbn = (fbn + 40503) % blocks
	}
}

// BenchmarkFreezeCleanRound is one op = one CP over 4096 dirty buffers of a
// resident file: overwrite them all, Freeze, then FrozenLevel + CleanChild
// bottom-up.
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
		for level := 0; level <= f.Height(); level++ {
			sinkBufs = f.FrozenLevel(level)
			for _, buf := range sinkBufs {
				f.CleanChild(buf, block.VVBN(loc), block.VBN(loc))
				loc++
			}
		}
	}
	round() // make every buffer and list resident
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
		for _, buf := range f.FrozenLevel(0) {
			f.CleanChild(buf, block.VVBN(loc), block.VBN(loc))
			loc++
		}
		out, _, _, _ := f.CleanChild(f.FrozenLevel(1)[0], block.VVBN(loc), block.VBN(loc))
		img = out.Bytes
	}
	round() // make every buffer and list resident
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.InstallBuffer(1, 0, block.Image{Bytes: img}, block.VVBN(ptrs+1), block.VBN(ptrs+1))
		round()
	}
}
