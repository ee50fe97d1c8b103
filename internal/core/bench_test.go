package core

import (
	"testing"

	"wafl/internal/block"
	"wafl/internal/sim"
)

// BenchmarkWindowRoundTrip is one tetris window's whole life, the unit the
// allocator's recycled state turns over in (DESIGN §9): a cleaner GETs the
// window's buckets, USEs every VBN, and PUTs them back, which commits them,
// sends the tetris to RAID and fills the next window. Every 16 windows a CP
// boundary drains, lifts the fences and frees what the windows used, so the
// aggregate never fills. With ReportAllocs, allocs/op is what a window still
// allocates: the fill and commit message bodies, the tetris header and one
// parity row per stripe, which goes to the media. Buckets, tetris lists,
// Waffinity messages, drive in-flight records and stripe scratch come back
// from their free lists; a pool that leaks or hands out live state shows up
// here, and under `make benchsmoke`.
func BenchmarkWindowRoundTrip(b *testing.B) {
	e := newEnv(b, nil)
	geo := e.a.Geometry()
	img := block.New()
	var used []block.VBN
	const windowsPerCP = 16
	done := false
	e.s.Go("bench", sim.CatCP, func(th *sim.Thread) {
		e.in.StartCP(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := 0; d < geo.DataDrives; d++ {
				bk := e.in.GetBucket(th)
				for bk.Remaining() > 0 {
					vbn := bk.vbns[bk.next]
					bk.next++
					_, drive, dbn := geo.Locate(vbn)
					e.in.addToTetris(bk.tetris, drive, dbn, img)
					used = append(used, vbn)
				}
				e.in.PutBucket(th, bk)
			}
			if (i+1)%windowsPerCP == 0 {
				e.drain(th)
				e.in.EndCP()
				for _, vbn := range used {
					e.a.Activemap.Clear(uint64(vbn))
				}
				used = used[:0]
				e.in.StartCP(nil)
			}
		}
		e.drain(th)
		b.StopTimer()
		done = true
	})
	// No timer runs in the env, so a deadlock jumps straight to the limit.
	e.s.RunFor(sim.Duration(b.N+1) * sim.Second)
	if !done {
		b.Fatal("benchmark thread did not complete (deadlock?)")
	}
}
