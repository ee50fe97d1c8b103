package fs

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"wafl/internal/block"
	"wafl/internal/fifo"
)

// ImagePool recycles the CP-owned image arrays (DESIGN §14, *Who holds an
// array*). It is the one place in this package that makes one: a metafile
// L0's copy at its file's L0 length (CPMutableData, InstallBuffer, Data),
// an indirect's array sized to its pointers (CleanChild, InstallBuffer) and
// MarkCleaned's trimmed copy of a sparse metafile L0 for the media come
// from it, one fifo.Pool per size class (block.Class). A user L0 of an aggregate holds
// its image by name, and takes nothing from it.
//
// An array comes back from whichever of its holders lets go of it last: its
// buffer or the media. The media marks the DBN of an array it alone holds
// (storage.Drive.MediaOnly): a trimmed copy is written marked, and a sealed
// array its buffer moves off is marked at the buffer's VBN (Marker.Mark).
// When the data drive and the parity row have both let go of a marked
// array (raid.Group's Forget, or a completed write that displaced it),
// Release poisons it and puts it back. An indirect that grows past its
// array leaves a private one, which nothing else holds, and it goes back at
// once (recycle). No other array is ever put back: an array a buffer holds
// is never marked. A nil pool allocates every array and marks none.
//
// The pool is also the one maker of the slot arrays a file's level-1 index
// nodes hold their L0s in (DESIGN §15), and the home of its user files' L0
// images that a slot's word does not hold itself (userImages).
type ImagePool struct {
	classes [block.Classes]fifo.Pool[[]byte]
	// slots are the free lists of a user file's level-1 slot arrays, one
	// per size class (slotClass): an array goes back when its node's last
	// L0 leaves (File.DropClean, Release) or when it is outgrown.
	slots     [slotClasses]fifo.Pool[[]block.Word]
	slotStats fifo.PoolStats
	// slotTakes are the arrays taken in the last two CP intervals (Trim).
	slotTakes  [2]uint64
	slotsTaken uint64 // slotStats.Taken at the last Trim
	user       userImages
	// marker marks the arrays buffers leave to the media; nil marks none.
	marker   Marker
	stats    fifo.PoolStats
	recycled uint64 // of stats.Returned, the arrays a growing indirect left
	// poisoned is a block of poison, copied over each array put back.
	poisoned []byte
}

// Marker is where the pool's arrays sit once written, the data drives by
// VBN, as far as marking them goes.
type Marker interface {
	// Mark marks vbn media-only if it holds arr's array, arr at its full
	// capacity, and reports whether it does (storage.Drive.Mark).
	Mark(vbn block.VBN, arr []byte) bool
}

// ImageStats counts an ImagePool's arrays. Unlike a fifo.PoolStats record,
// an array is outstanding by design while a buffer or the media holds it, so
// Quiesce does not apply the leak rule to it; it audits where the arrays sit
// instead (ImagePool.Audit).
type ImageStats struct {
	New      uint64 // arrays built
	Taken    uint64 // arrays handed out, New included
	Returned uint64 // media-only arrays back from the media
	Recycled uint64 // private arrays back from an indirect that outgrew them

	// Slots counts the user files' level-1 slot arrays. Unlike the image
	// arrays they are under the leak rule: a quiesced member's user files
	// hold no image word, so none of their nodes holds a slot array.
	Slots fifo.PoolStats
}

// poison fills an array on its way back to the pool, so a premature recycle
// reads as garbage — an fsck or decode failure — not as plausible stale
// bytes.
const poison = 0xA5

// NewImagePool returns an empty pool.
func NewImagePool() *ImagePool {
	p := &ImagePool{user: userImages{preserved: map[l0Key]block.Word{}}, poisoned: bytes.Repeat([]byte{poison}, block.Size)}
	for c := range p.classes {
		size := block.ClassCap(c)
		p.classes[c] = fifo.NewPool(&p.stats, func() []byte { return make([]byte, size) })
	}
	for c := range p.slots {
		n := minSlots << c
		p.slots[c] = fifo.NewPool(&p.slotStats, func() []block.Word { return make([]block.Word, n) })
		p.slots[c].Limit(0) // until a commit has seen what a CP interval takes
	}
	return p
}

// SetMarker makes m the media that marks the arrays buffers leave. The owner
// of the media sets it.
func (p *ImagePool) SetMarker(m Marker) { p.marker = m }

// Stats returns the pool's counts.
func (p *ImagePool) Stats() ImageStats {
	return ImageStats{New: p.stats.New, Taken: p.stats.Taken, Returned: p.stats.Returned - p.recycled,
		Recycled: p.recycled, Slots: p.slotStats}
}

// l0Key names a user L0: its file and FBN.
type l0Key struct {
	f   *File
	fbn block.FBN
}

// userImages is the home of the user L0 images that a slot's word does not
// hold itself: byte images, in the table a word's handle indexes
// (block.Table, DESIGN §14), and the preserved CP image of each frozen L0 a
// client overwrote before the CP cleaned it (File.WriteImage), from that
// overwrite until CleanL0 hands it to the media. An L0 has an entry exactly
// when its slot is both frozen and dirty, so the map is probed only by an
// L0 that has one. Entries leave by delete and the map is made once: after
// a CP's worth of overwrites, a warm run allocates nothing for it. Only
// Audit walks it, and it sorts what it reports.
type userImages struct {
	block.Table
	preserved map[l0Key]block.Word
}

// reset forgets every image: a crash dropped the trees holding them.
func (u *userImages) reset() {
	clear(u.preserved)
	u.Table = block.Table{}
}

// slotClasses is the number of slot-array sizes: minSlots << c slots for
// class c, from 8 up to block.PtrsPerBlock.
const (
	minSlots    = 8
	slotClasses = 6
)

// slotClass returns the class of the shortest slot array that holds slot d,
// and its length: a power of two from minSlots up, so small and sparse files
// do not pay for 256 slots per node.
func slotClass(d int) (c, n int) {
	for n = minSlots; n <= d; n *= 2 {
		c++
	}
	return c, n
}

// words returns s, the slot array of one of a user file's level-1 nodes (nil
// if it has none), grown to hold slot d: from its size class's free list,
// and the one it outgrew goes back at once. A nil pool allocates.
func (p *ImagePool) words(s []block.Word, d int) []block.Word {
	c, n := slotClass(d)
	var grown []block.Word
	if p == nil {
		grown = make([]block.Word, n)
	} else {
		grown = p.slots[c].Get()
	}
	copy(grown, s)
	p.putWords(s)
	return grown
}

// putWords takes back s, a slot array its node no longer holds.
func (p *ImagePool) putWords(s []block.Word) {
	if p == nil || s == nil {
		return
	}
	clear(s)
	c, _ := slotClass(len(s) - 1)
	p.slots[c].Put(s)
}

// leaves returns s, the slot array of one of a metafile's level-1 nodes (nil
// if it has none), grown to hold slot d. A metafile's L0 buffers never leave
// their tree, so its arrays are the garbage collector's.
func leaves(s []*Buffer, d int) []*Buffer {
	_, n := slotClass(d)
	grown := make([]*Buffer, n)
	copy(grown, s)
	return grown
}

// Trim, at a CP's commit, limits each slot array list to twice the arrays
// taken in the longer of the last two CP intervals or held now, of every
// class, whichever is more: a node's array passes through the classes as it
// grows, often over more than one interval, and a short interval (a
// back-to-back CP) takes few, while the next may take as many as the one
// before it. The next commit's emptied arrays beyond the limit go to the
// garbage collector, so a burst — a prefill dirtied in one CP — neither
// stays live nor grows the lists.
func (p *ImagePool) Trim() {
	p.slotTakes[0], p.slotTakes[1] = p.slotTakes[1], p.slotStats.Taken-p.slotsTaken
	p.slotsTaken = p.slotStats.Taken
	keep := 2 * max(int(max(p.slotTakes[0], p.slotTakes[1])), int(p.slotStats.Outstanding()))
	for c := range p.slots {
		p.slots[c].Limit(keep)
	}
}

// Abandon writes off the slot arrays, and the images they held, that a crash
// dropped with their trees, and forgets the preserved images: the pool never
// takes back an array a crashed aggregate wrote.
func (p *ImagePool) Abandon() {
	p.user.reset()
	for c := range p.slots {
		p.slots[c].Abandon()
	}
}

// get returns an array of n bytes, 0 < n <= block.Size, holding garbage,
// whose capacity is its size class.
func (p *ImagePool) get(n int) []byte {
	c, size := block.Class(n)
	if p == nil {
		return make([]byte, n, size)
	}
	return p.classes[c].Get()[:n]
}

// copyOf returns an n-byte copy of image src, zero past src's end; n == 0
// gives nil. src's bytes past n, if any, must be zero.
func (p *ImagePool) copyOf(src []byte, n int) []byte {
	if n == 0 {
		return nil
	}
	b := p.get(n)
	clear(b[copy(b, src):])
	return b
}

// ptrsLen is the length an indirect's array of capacity cur grows to so
// that it holds need: the size class of twice cur, or of need if that is
// longer, up to a full indirect's image, so a sequential fill copies the
// array about log2 times.
func ptrsLen(cur, need int) int {
	_, size := block.Class(min(max(need, 2*cur), block.PtrsPerBlock*block.PtrSize))
	return size
}

// mediaCopy returns a private copy of image src that only the media will
// hold, and whether it is to be written marked media-only: the pool's copy
// is. An empty image is non-nil and not the pool's (a nil image on the media
// is a block never written).
func (p *ImagePool) mediaCopy(src []byte) (img []byte, mediaOnly bool) {
	if len(src) == 0 {
		return []byte{}, false
	}
	b := p.get(len(src))
	copy(b, src)
	return b, p != nil
}

// leave hands the media arr, one of the pool's arrays that its buffer no
// longer holds, which the media holds at vbn: the media marks it
// media-only there. If vbn holds another array by now (its block was
// forgotten, or moved), nothing marks arr, and it is the garbage
// collector's.
func (p *ImagePool) leave(vbn block.VBN, arr []byte) {
	if p != nil && p.marker != nil && cap(arr) > 0 {
		p.marker.Mark(vbn, arr[:cap(arr)])
	}
}

// Release takes back arr, the whole array of a marked image (its size
// class's capacity, storage.Drive.Owned). Its caller has seen the data drive
// and the parity row both let go of it. It is poisoned, and goes back to its
// class.
func (p *ImagePool) Release(arr []byte) { p.put(arr) }

// recycle takes back img, one of the pool's arrays that its buffer left and
// nothing else holds: never on the media, so it goes back at once.
func (p *ImagePool) recycle(img []byte) {
	if p != nil && cap(img) > 0 {
		p.recycled++
		p.put(img[:cap(img)])
	}
}

// put poisons a, an array at its size class's full capacity, and returns it
// to its class.
func (p *ImagePool) put(a []byte) {
	copy(a, p.poisoned)
	c, _ := block.Class(len(a))
	p.classes[c].Put(a)
}

// Audit checks where the pool's arrays sit once no write is in flight (at
// Quiesce), and that no user L0 outlived its CP's commit clean. media calls
// its argument with every data-drive byte image, the VBN it sits at and
// whether the DBN is marked media-only; files are every file whose buffers
// may hold the pool's arrays. It may be called more than once. A marked
// DBN's array must sit in no buffer and at no other DBN. A buffer's array
// may sit on the media only if the buffer is sealed, and then exactly at the
// buffer's VBN. A preserved CP image must belong to an L0 of files that is
// frozen and dirty (overwritten during its CP), and every such L0 must have
// one: an image that outlives its CP fails. Every byte-image handle in use
// must be held by a slot's word or a preserved image.
func (p *ImagePool) Audit(files []*File, media func(visit func(vbn block.VBN, img []byte, mediaOnly bool))) error {
	var errs []error
	fail := func(format string, args ...any) {
		if len(errs) < 8 {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	held := map[*byte]*Buffer{}
	overwritten := map[l0Key]bool{} // frozen and dirty: the L0s with a CP image
	handles := 0
	for _, f := range files {
		f.eachNode(func(n *node, level int, base block.FBN) {
			if n.buf != nil && len(n.buf.data) > 0 {
				held[&n.buf.data[0]] = n.buf
			}
			for _, b := range n.leaves {
				if b != nil && len(b.data) > 0 {
					held[&b.data[0]] = b
				}
			}
			for d, w := range n.words {
				fbn := base | block.FBN(d)
				if p.user.Image(w).Bytes != nil {
					handles++
				}
				if n.cleaned.has(d) {
					fail("clean user L0 (ino %d, fbn %d) left in its tree after its CP committed", f.ino, fbn)
				}
				if !n.frozen.has(d) || !n.dirty.has(d) {
					continue
				}
				w, ok := p.user.preserved[l0Key{f, fbn}]
				if !ok {
					fail("L0 (ino %d, fbn %d) is frozen and dirty but has no CP image", f.ino, fbn)
				}
				if p.user.Image(w).Bytes != nil {
					handles++
				}
				overwritten[l0Key{f, fbn}] = true
			}
		})
	}
	var stale []l0Key
	for k := range p.user.preserved {
		if !overwritten[k] {
			stale = append(stale, k)
		}
	}
	if len(stale) > 0 {
		slices.SortFunc(stale, func(a, b l0Key) int {
			return cmp.Or(cmp.Compare(a.f.ino, b.f.ino), cmp.Compare(a.fbn, b.fbn))
		})
		fail("%d preserved CP images outlive their CP or name an L0 not frozen and dirty, the first (ino %d, fbn %d)", len(stale), stale[0].f.ino, stale[0].fbn)
	}
	if handles != p.user.Len() {
		fail("%d byte-image handles in use, %d held by the files' words", p.user.Len(), handles)
	}
	at := map[*byte][]block.VBN{}
	media(func(vbn block.VBN, img []byte, mediaOnly bool) {
		if len(img) == 0 {
			return
		}
		k := &img[0]
		b := held[k]
		switch {
		case mediaOnly && b != nil:
			fail("media-only array at %v is buffer (level %d, fbn %d)'s array", vbn, b.level, b.fbn)
		case b == nil:
		case !b.sealed:
			fail("unsealed buffer (level %d, fbn %d) at %v has its array on the media at %v", b.level, b.fbn, b.vbn, vbn)
		case b.vbn != vbn:
			fail("sealed buffer (level %d, fbn %d) at %v has its array on the media at %v", b.level, b.fbn, b.vbn, vbn)
		}
		if mediaOnly || b != nil {
			at[k] = append(at[k], vbn)
		}
	})
	// A second pass finds a marked array at an unmarked DBN the first met
	// before it.
	media(func(vbn block.VBN, img []byte, mediaOnly bool) {
		if len(img) == 0 || mediaOnly || held[&img[0]] != nil {
			return
		}
		if vbns, ok := at[&img[0]]; ok {
			at[&img[0]] = append(vbns, vbn)
		}
	})
	for k, vbns := range at {
		if len(vbns) < 2 {
			continue
		}
		slices.Sort(vbns)
		if b := held[k]; b != nil {
			fail("buffer (level %d, fbn %d)'s array sits at %d DBNs: %v", b.level, b.fbn, len(vbns), vbns)
		} else {
			fail("media-only array sits at %d DBNs: %v", len(vbns), vbns)
		}
	}
	return errors.Join(errs...)
}
