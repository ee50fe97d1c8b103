package fs

import (
	"math/rand"
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
// resident height-2 file and their indirects, every level cleaned in its
// walk's order (NextFrozen). user: a user file's L0s overwritten in FBN
// order and frozen, cleaned by CleanL0 and the indirects by CleanChild.
// metafile: a metafile's L0s dirtied into the CP in a shuffled order
// (DirtyIntoCP), every block cleaned by CleanChild.
func BenchmarkFreezeCleanRound(b *testing.B) {
	const blocks = 4096
	clean := func(f *File) {
		loc := uint64(1)
		for level := 0; level <= f.Height(); level++ {
			for idx, buf, ok := f.NextFrozen(level, 0, blocks); ok; idx, buf, ok = f.NextFrozen(level, idx+1, blocks) {
				if buf == nil {
					f.CleanL0(idx, block.VVBN(loc), block.VBN(loc))
				} else {
					f.CleanChild(buf, block.VVBN(loc), block.VBN(loc))
				}
				loc++
			}
		}
	}
	run := func(b *testing.B, round func()) {
		round() // make every node and buffer resident
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	}
	b.Run("user", func(b *testing.B) {
		payload := make([]byte, 64)
		f := NewFile(1, 2)
		run(b, func() {
			for fbn := block.FBN(0); fbn < blocks; fbn++ {
				f.WriteBlock(fbn, payload)
			}
			f.Freeze()
			clean(f)
		})
	})
	b.Run("metafile", func(b *testing.B) {
		f := NewMetafile(1, 2)
		var bufs []*Buffer
		for _, fbn := range rand.New(rand.NewSource(1)).Perm(blocks) {
			bufs = append(bufs, f.GetOrCreateL0(block.FBN(fbn)))
		}
		run(b, func() {
			for _, buf := range bufs {
				f.DirtyIntoCP(buf)
			}
			clean(f)
		})
	})
}

// BenchmarkCleanSparseIndirect is one op = one CP over a 64-block file whose
// L1 comes from the media, as after a mount: install the L1's 64-pointer
// image, overwrite the 64 L0s, Freeze, then clean them and the L1. The file
// has no image pool, so -benchmem's B/op is every array the L1 takes: 512 B,
// its 64 8-byte pointers, while a sparse indirect keeps an array of its
// image's length and hands it to the media sealed.
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
		for fbn, _, ok := f.NextFrozen(0, 0, ptrs); ok; fbn, _, ok = f.NextFrozen(0, fbn+1, ptrs) {
			f.CleanL0(fbn, block.VVBN(loc), block.VBN(loc))
			loc++
		}
		out, _, _, _ := f.CleanChild(f.Buffer(1, 0), block.VVBN(loc), block.VBN(loc))
		img = out.Bytes
	}
	round() // make every node and buffer resident
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.InstallBuffer(1, 0, block.Image{Bytes: img}, block.VVBN(ptrs+1), block.VBN(ptrs+1))
		round()
	}
}
