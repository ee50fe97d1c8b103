package main

import (
	"flag"
	"math/rand"
	"testing"

	"wafl/internal/bcache"
	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/fs"
	"wafl/internal/nvlog"
	"wafl/internal/obs"
	"wafl/internal/raid"
	"wafl/internal/sim"
	"wafl/internal/storage"
	"wafl/internal/waffinity"
)

// A kernel is one layer's hot operation on fixed inputs, timed on the host
// clock with testing.Benchmark. div is how many units (blocks, bits,
// buffers) one benchmark iteration covers, so the metric is per unit.
type kernel struct {
	ns     string // metric name for ns per unit
	allocs string // metric name for heap allocations per unit ("" = not reported)
	div    float64
	fn     func(b *testing.B)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink struct {
	bytes []byte
	u64   uint64
	bits  []uint64
	buf   *fs.Buffer
	n     int
	ok    bool
}

func patternBlock(tag byte) []byte {
	p := block.New()
	for i := range p {
		p[i] = tag ^ byte(i)
	}
	return p
}

const (
	kernelFileBlocks = 8192 // the seqwrite file size
	kernelStripes    = 64   // stripes per RAID write, blocks per drive I/O
	kernelMapBits    = 1 << 18
	kernelCacheCap   = 8192
	kernelFreezeBufs = 1024
)

// writtenFile returns a seqwrite-sized file whose first n blocks are
// resident and dirty in the open generation, and the 64-byte payload (the
// default Config.PayloadBytes) they were written with.
func writtenFile(n block.FBN) (*fs.File, []byte) {
	f := fs.NewFile(16, fs.HeightFor(kernelFileBlocks))
	payload := patternBlock(5)[:64]
	for fbn := block.FBN(0); fbn < n; fbn++ {
		f.WriteBlock(fbn, payload)
	}
	return f, payload
}

// agedIndex builds a 2^18-bit activemap at ~82 % occupancy (the agedrand
// volume geometry) under a hierarchical free index.
func agedIndex() (*bitmap.Activemap, *bitmap.Index) {
	height := fs.HeightFor(kernelMapBits / bitmap.BitsPerBlock)
	active := bitmap.New(fs.NewFile(1, height), kernelMapBits)
	summary := bitmap.New(fs.NewFile(2, height), kernelMapBits)
	x := bitmap.NewIndex(active, summary, 32768)
	rng := rand.New(rand.NewSource(1))
	for bn := uint64(0); bn < kernelMapBits; bn++ {
		if rng.Intn(100) < 82 {
			active.Set(bn)
		}
	}
	return active, x
}

var kernels = []kernel{
	{ns: "block.xor_ns", div: 1, fn: func(b *testing.B) {
		dst, src := patternBlock(1), patternBlock(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			block.XOR(dst, src)
		}
		sink.bytes = dst
	}},
	{ns: "block.clone_ns", allocs: "block.clone_allocs", div: 1, fn: func(b *testing.B) {
		src := patternBlock(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.bytes = block.Clone(src)
		}
	}},
	{ns: "block.checksum_ns", div: 1, fn: func(b *testing.B) {
		src := patternBlock(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.u64 = block.Checksum(src)
		}
	}},
	// Overwrite of a resident buffer that is already dirty in the open
	// generation: map lookup + payload copy, no copy-on-write (that cost is
	// block.clone_ns).
	{ns: "fs.writeblock_ns", allocs: "fs.writeblock_allocs", div: 1, fn: func(b *testing.B) {
		f, payload := writtenFile(kernelFileBlocks)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.buf = f.WriteBlock(block.FBN(i%kernelFileBlocks), payload)
		}
	}},
	{ns: "fs.readblock_ns", div: 1, fn: func(b *testing.B) {
		f, _ := writtenFile(kernelFileBlocks)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.bytes = f.ReadBlock(block.FBN(i % kernelFileBlocks))
		}
	}},
	{ns: "fs.freeze_ns_per_buffer", div: kernelFreezeBufs, fn: func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f, _ := writtenFile(kernelFreezeBufs)
			b.StartTimer()
			sink.n = f.Freeze()
		}
	}},
	// One Set + Clear pair on an otherwise empty map with the free index's
	// hooks attached.
	{ns: "bitmap.setclear_ns", div: 1, fn: func(b *testing.B) {
		height := fs.HeightFor(kernelMapBits / bitmap.BitsPerBlock)
		active := bitmap.New(fs.NewFile(1, height), kernelMapBits)
		bitmap.NewIndex(active, nil, 32768)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bn := uint64(i) * 977 % kernelMapBits
			active.Set(bn)
			active.Clear(bn)
		}
	}},
	// Index.FindFree for one 64-bit bucket's worth of free bits per call,
	// sweeping the 82 %-full map; reported per bit returned.
	{ns: "bitmap.findfree_ns_per_bit", div: 64, fn: func(b *testing.B) {
		_, x := agedIndex()
		dst := make([]uint64, 0, 64)
		start := uint64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = x.FindFree(dst[:0], start, kernelMapBits, 64)
			if len(dst) < 64 {
				start = 0
				continue
			}
			start = dst[63] + 1
		}
		sink.bits = dst
	}},
	// A full-stripe Group.Write of 64 stripes across 4 data drives, run to
	// completion (parity XOR + five drive I/Os + their completion events).
	{ns: "raid.write_ns_per_block", allocs: "raid.write_allocs_per_block", div: 4 * kernelStripes, fn: func(b *testing.B) {
		s := sim.New(2, 1)
		g := raid.NewGroup(s, 0, 4, 1<<16, storage.SSD)
		data := patternBlock(8)
		writes := make([][]storage.WriteReq, 4)
		for di := range writes {
			writes[di] = make([]storage.WriteReq, kernelStripes)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := block.DBN(i * kernelStripes % (1<<16 - kernelStripes))
			for di := range writes {
				for k := range writes[di] {
					writes[di][k] = storage.WriteReq{DBN: base + block.DBN(k), Data: data}
				}
			}
			g.Write(writes, 0, nil)
			s.Drain(s.Now() + sim.Time(sim.Second))
		}
	}},
	{ns: "storage.write_ns_per_block", div: kernelStripes, fn: func(b *testing.B) {
		s := sim.New(2, 1)
		d := storage.NewDrive(s, "k", storage.SSD, 1<<16)
		data := patternBlock(9)
		reqs := make([]storage.WriteReq, kernelStripes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := block.DBN(i * kernelStripes % (1<<16 - kernelStripes))
			for k := range reqs {
				reqs[k] = storage.WriteReq{DBN: base + block.DBN(k), Data: data}
			}
			d.Write(reqs, nil)
			s.Drain(s.Now() + sim.Time(sim.Second))
		}
	}},
	{ns: "nvlog.append_ns", div: 1, fn: func(b *testing.B) {
		l := nvlog.New(24 << 20)
		rec := nvlog.Record{Kind: nvlog.OpWrite, Ino: 16, Data: patternBlock(10)[:64], LogicalBytes: block.Size}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !l.Append(rec) {
				l.Switch()
				l.FreeFrozen()
			}
		}
	}},
	// The client write path's reserve -> append -> release sequence.
	{ns: "nvlog.reserve_ns", div: 1, fn: func(b *testing.B) {
		l := nvlog.New(24 << 20)
		rec := nvlog.Record{Kind: nvlog.OpWrite, Ino: 16, Data: patternBlock(11)[:64], LogicalBytes: block.Size}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, ok := l.Reserve(rec.Size())
			if !ok {
				l.Switch()
				l.FreeFrozen()
				continue
			}
			res.Append(rec)
			res.Release()
		}
	}},
	// One After + the event loop popping and dispatching it.
	{ns: "sim.event_ns", allocs: "sim.event_allocs", div: 1, fn: func(b *testing.B) {
		s := sim.New(2, 1)
		nop := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(1, nop)
			s.RunFor(1)
		}
	}},
	// One simulated-thread park/resume round trip: a thread yielding in a
	// loop costs one event, one resume and one park per iteration.
	{ns: "sim.switch_ns", div: 1, fn: func(b *testing.B) {
		s := sim.New(2, 1)
		s.Go("yielder", sim.CatOther, func(t *sim.Thread) {
			for {
				t.Yield()
			}
		})
		// The yielder never lets simulated time advance, so only the event
		// budget ends the run: thread start plus b.N round trips.
		b.ResetTimer()
		s.HaltAtEvent(s.Events() + uint64(b.N) + 1)
		s.RunFor(sim.Second)
		b.StopTimer()
		s.HaltAtEvent(0)
		s.Shutdown()
	}},
	// One message through the Waffinity scheduler: Send, worker wake-up,
	// dispatch, execution of an empty body.
	{ns: "waffinity.send_ns", allocs: "waffinity.send_allocs", div: 1, fn: func(b *testing.B) {
		s := sim.New(4, 1)
		ws := waffinity.New(s, 4, 0)
		aff := ws.AddChild(ws.Root(), waffinity.KindVolume, "kernel")
		s.RunFor(1) // park the workers
		body := func(*sim.Thread) {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.Send(aff, sim.CatClient, body, nil)
			s.Drain(s.Now() + sim.Time(sim.Second))
		}
		b.StopTimer()
		s.Shutdown()
	}},
	{ns: "bcache.touch_hit_ns", div: 1, fn: func(b *testing.B) {
		c := bcache.New(kernelCacheCap)
		for i := 0; i < kernelCacheCap; i++ {
			c.Insert(bcache.Key{Ino: 16, FBN: block.FBN(i)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.ok = c.Touch(bcache.Key{Ino: 16, FBN: block.FBN(i * 31 % kernelCacheCap)})
		}
	}},
	{ns: "bcache.insert_evict_ns", div: 1, fn: func(b *testing.B) {
		c := bcache.New(kernelCacheCap)
		for i := 0; i < kernelCacheCap; i++ {
			c.Insert(bcache.Key{Ino: 16, FBN: block.FBN(i)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Insert(bcache.Key{Ino: 17, FBN: block.FBN(i)})
		}
	}},
	{ns: "obs.observe_ns", div: 1, fn: func(b *testing.B) {
		h := obs.NewHistogram("kernel")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i&0xfffff) * 37)
		}
		sink.u64 = h.Count
	}},
}

// runKernels times every layer kernel once. Kernels are the same for every
// workload and seed: they have fixed inputs.
func runKernels(quick bool) legResult {
	res := legResult{Sim: map[string]float64{}, Host: map[string]float64{}}
	testing.Init()
	benchtime := "100ms"
	if quick {
		benchtime = "1x" // one iteration: proves each kernel runs, times nothing
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		res.fail("kernels: %v", err)
		return res
	}
	for _, k := range kernels {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			k.fn(b)
		})
		if r.N == 0 {
			res.fail("kernel %s did not run", k.ns)
			continue
		}
		res.Host[k.ns] = float64(r.T.Nanoseconds()) / float64(r.N) / k.div
		if k.allocs != "" {
			res.Host[k.allocs] = float64(r.MemAllocs) / float64(r.N) / k.div
		}
	}
	return res
}
