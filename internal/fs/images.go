package fs

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"wafl/internal/block"
	"wafl/internal/fifo"
)

// ImagePool recycles the arrays of CP-owned images — indirect blocks and
// metafile L0s, the blocks only CP-side code writes (DESIGN §14, *Who holds
// a CP-owned array*). It is the one place in this package that makes an
// image array: a metafile L0's full-block copy (CPMutableData,
// InstallBuffer, Data), an indirect's array sized to its pointers
// (CleanChild, InstallBuffer) and MarkCleaned's trimmed copy of a sparse
// metafile L0 for the media come from it, one fifo.Pool per size class.
//
// An array comes back from the media, or from a buffer that outgrew it. The
// pool registers the arrays that the media alone holds ("media-only"): a
// trimmed copy from birth, and a buffer's array once the buffer leaves it
// for a fresh one while the media still holds it. When the data drive and
// the parity row have both let go of a media-only array (raid.Group's
// Forget, or a completed write that displaced it), Release poisons it and
// puts it back. An indirect that grows past its array leaves a private one,
// which nothing else holds, and it goes back at once (recycle). No other
// array is ever put back: a buffer's array is never registered while the
// buffer holds it, and a user L0 is not the pool's. A nil pool allocates
// every array and registers none.
type ImagePool struct {
	classes [nClasses]fifo.Pool[[]byte]
	// buffers is the free list of user L0 buffers: a clean one leaves its
	// tree when its CP commits (File.DropClean), and the next L0 a write
	// or a load creates is drawn from here.
	buffers  fifo.Pool[*Buffer]
	bufStats fifo.PoolStats
	bufTaken uint64 // bufStats.Taken at the last TrimBuffers
	// mediaOnly maps a media-only array's first byte to the array at its
	// full capacity: the media hands images back with their capacity cut to
	// their length.
	mediaOnly map[*byte][]byte
	stats     fifo.PoolStats
	recycled  uint64 // of stats.Returned, the arrays a growing indirect left
}

// ImageStats counts an ImagePool's arrays. Unlike a fifo.PoolStats record,
// an array is outstanding by design while a buffer or the media holds it, so
// Quiesce does not apply the leak rule to it; it audits where the arrays sit
// instead (ImagePool.Audit).
type ImageStats struct {
	New       uint64 // arrays built
	Taken     uint64 // arrays handed out, New included
	Returned  uint64 // media-only arrays back from the media
	Recycled  uint64 // private arrays back from an indirect that outgrew them
	MediaOnly int64  `stat:"gauge"` // arrays the media alone holds

	// Buffers counts the user L0 buffer free list. Unlike the arrays it is
	// under the leak rule: a quiesced member's user files hold no buffer.
	Buffers fifo.PoolStats
}

// poison fills an array on its way back to the pool, so a premature recycle
// reads as garbage — an fsck or decode failure — not as plausible stale
// bytes.
const poison = 0xA5

// nClasses is the number of size classes: 16-byte steps up to 256 bytes,
// then eight steps per doubling up to a block.
const nClasses = 48

// classOf returns the size class of an n-byte array, 0 < n <= block.Size,
// and the class's capacity, which is at least n and at most an eighth more
// above 128 bytes.
func classOf(n int) (c, size int) {
	shift := max(bits.Len(uint(n-1))-4, 4)
	k := (n - 1) >> shift
	return 8*shift - 32 + k, (k + 1) << shift
}

// classSize is the capacity of class c.
func classSize(c int) int {
	if c < 16 {
		return (c + 1) << 4
	}
	return (c%8 + 9) << (c/8 + 3)
}

// NewImagePool returns an empty pool.
func NewImagePool() *ImagePool {
	p := &ImagePool{mediaOnly: make(map[*byte][]byte)}
	p.buffers = fifo.NewPool(&p.bufStats, func() *Buffer { return new(Buffer) })
	p.buffers.Limit(0) // until a commit has seen what a CP interval takes
	for c := range p.classes {
		size := classSize(c)
		p.classes[c] = fifo.NewPool(&p.stats, func() []byte { return make([]byte, size) })
	}
	return p
}

// Stats returns the pool's counts.
func (p *ImagePool) Stats() ImageStats {
	return ImageStats{New: p.stats.New, Taken: p.stats.Taken, Returned: p.stats.Returned - p.recycled,
		Recycled: p.recycled, MediaOnly: int64(len(p.mediaOnly)), Buffers: p.bufStats}
}

// buffer returns the empty buffer at (level, fbn) of f: a user L0 from the
// free list, any other buffer — an indirect or a metafile L0, which stay in
// their trees — new.
func (p *ImagePool) buffer(f *File, fbn block.FBN, level int) *Buffer {
	if p == nil || level > 0 || f.metafile {
		return newBuffer(new(Buffer), f, fbn, level)
	}
	return newBuffer(p.buffers.Get(), f, fbn, level)
}

// putBuffer takes back user L0 b, which its tree no longer holds.
func (p *ImagePool) putBuffer(b *Buffer) {
	if p != nil {
		*b = Buffer{}
		p.buffers.Put(b)
	}
}

// TrimBuffers, at a CP's commit, limits the free list to twice the buffers
// taken since the last commit: what the next CP interval is likely to take
// again, with room to take more. The next commit's clean buffers beyond it
// go to the garbage collector, so a burst — a prefill dirtied in one CP —
// neither stays live nor grows the list.
func (p *ImagePool) TrimBuffers() {
	p.buffers.Limit(2 * int(p.bufStats.Taken-p.bufTaken))
	p.bufTaken = p.bufStats.Taken
}

// Abandon writes off the buffers a crash dropped with their trees.
func (p *ImagePool) Abandon() { p.buffers.Abandon() }

// get returns an array of n bytes, 0 < n <= block.Size, holding garbage,
// whose capacity is its size class.
func (p *ImagePool) get(n int) []byte {
	c, size := classOf(n)
	if p == nil {
		return make([]byte, n, size)
	}
	return p.classes[c].Get()[:n]
}

// copyOf returns an n-byte copy of image src, len(src) <= n, zero past
// src's end; n == 0 gives nil.
func (p *ImagePool) copyOf(src []byte, n int) []byte {
	if n == 0 {
		return nil
	}
	b := p.get(n)
	clear(b[copy(b, src):])
	return b
}

// full returns a full-block copy of image src; nil gives the zero block.
func (p *ImagePool) full(src []byte) []byte { return p.copyOf(src, block.Size) }

// ptrsLen is the length an indirect's array of capacity cur grows to so
// that it holds need: the size class of twice cur, or of need if that is
// longer, up to sparseMax, so a sequential fill copies the array about log2
// times; a full block once need is past sparseMax.
func ptrsLen(cur, need int) int {
	if need > sparseMax {
		return block.Size
	}
	_, size := classOf(min(max(need, 2*cur), sparseMax))
	return size
}

// mediaCopy returns a private copy of image src that only the media will
// hold: registered from birth. An empty image is non-nil and not the pool's
// (a nil image on the media is a block never written).
func (p *ImagePool) mediaCopy(src []byte) []byte {
	if len(src) == 0 {
		return []byte{}
	}
	b := p.get(len(src))
	copy(b, src)
	p.leave(b)
	return b
}

// leave registers img, one of the pool's arrays that its buffer no longer
// holds, as media-only: the media holds it at exactly one DBN.
func (p *ImagePool) leave(img []byte) {
	if p != nil {
		img = img[:cap(img)]
		p.mediaOnly[&img[0]] = img
	}
}

// MediaOnly reports whether img, an image a data drive holds, is an array
// only the media holds.
func (p *ImagePool) MediaOnly(img []byte) bool {
	if len(img) == 0 {
		return false
	}
	_, ok := p.mediaOnly[&img[0]]
	return ok
}

// Release takes img back if it is media-only. Its caller has seen the data
// drive and the parity row both let go of it. It is poisoned, and goes back
// to its class. Any other array is the garbage collector's.
func (p *ImagePool) Release(img []byte) {
	if len(img) == 0 {
		return
	}
	a, ok := p.mediaOnly[&img[0]]
	if !ok {
		return
	}
	delete(p.mediaOnly, &img[0])
	p.put(a)
}

// recycle takes back img, one of the pool's arrays that its buffer left and
// nothing else holds: never on the media, so it goes back at once.
func (p *ImagePool) recycle(img []byte) {
	if p != nil && cap(img) > 0 {
		p.recycled++
		p.put(img[:cap(img)])
	}
}

// put poisons a, an array at its full capacity, and returns it to its class.
func (p *ImagePool) put(a []byte) {
	a[0] = poison
	for n := 1; n < len(a); n *= 2 {
		copy(a[n:], a[:n])
	}
	c, _ := classOf(len(a))
	p.classes[c].Put(a)
}

// Audit checks where the pool's arrays sit once no write is in flight (at
// Quiesce), and that no user L0 buffer outlived its CP's commit clean. media
// calls its argument with every data-drive image and the VBN it sits at;
// files are every file whose buffers may hold the pool's arrays.
// Every media-only array must sit at exactly one DBN, and in no buffer. A
// CP-owned buffer's array, which the pool issued, may sit on the media only
// if the buffer is sealed, and then exactly at the buffer's VBN: an array
// the pool issued is on the media either registered or sealed into its
// buffer.
func (p *ImagePool) Audit(files []*File, media func(visit func(vbn block.VBN, img []byte))) error {
	var errs []error
	fail := func(format string, args ...any) {
		if len(errs) < 8 {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	held := map[*byte]*Buffer{}
	for _, f := range files {
		f.eachBuffer(func(b *Buffer) {
			switch {
			case b.cpOwned() && len(b.data) > 0:
				held[&b.data[0]] = b
			case !b.cpOwned() && !b.dirtyCurr && !b.inCP:
				fail("clean user L0 buffer (ino %d, fbn %d) left in its tree after its CP committed", f.ino, b.fbn)
			}
		})
	}
	at := map[*byte][]block.VBN{}
	media(func(vbn block.VBN, img []byte) {
		if len(img) == 0 {
			return
		}
		k := &img[0]
		_, reg := p.mediaOnly[k]
		b := held[k]
		switch {
		case reg && b != nil:
			fail("media-only array at %v is buffer (level %d, fbn %d)'s array", vbn, b.level, b.fbn)
		case b != nil && !b.sealed:
			fail("unsealed buffer (level %d, fbn %d) at %v has its array on the media at %v", b.level, b.fbn, b.vbn, vbn)
		case b != nil && b.vbn != vbn:
			fail("sealed buffer (level %d, fbn %d) at %v has its array on the media at %v", b.level, b.fbn, b.vbn, vbn)
		}
		if reg || b != nil {
			at[k] = append(at[k], vbn)
		}
	})
	var lost int
	for k := range p.mediaOnly {
		switch vbns := at[k]; {
		case len(vbns) == 0:
			lost++
		case len(vbns) > 1:
			slices.Sort(vbns)
			fail("media-only array sits at %d DBNs: %v", len(vbns), vbns)
		}
	}
	if lost > 0 {
		fail("%d media-only arrays sit at no DBN: the media let go of them and they never came back", lost)
	}
	for k, b := range held {
		if vbns := at[k]; len(vbns) > 1 {
			slices.Sort(vbns)
			fail("buffer (level %d, fbn %d)'s array sits at %d DBNs: %v", b.level, b.fbn, len(vbns), vbns)
		}
	}
	return errors.Join(errs...)
}
