package fs

import (
	"testing"

	"wafl/internal/block"
)

// Package benchmarks for the three things the data path asks of a File:
// create-and-dirty on first write, find a resident buffer, and carry a dirty
// set through one consistency point. `make benchsmoke` runs each once so
// they cannot rot; for numbers use
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
