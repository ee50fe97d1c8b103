// Package storage simulates persistent drives: per-drive FCFS service
// queues with configurable service-time profiles (SSD, SAS HDD, and the
// hybrid Flash Pool models used by the paper's testbeds), plus the stable
// block store that gives the simulated file system real crash semantics —
// a block's content changes only when its write I/O completes.
package storage

import (
	"fmt"
	"math"
	"unsafe"

	"wafl/internal/block"
	"wafl/internal/fifo"
	"wafl/internal/obs"
	"wafl/internal/sim"
)

// Profile describes a drive's service-time model. An I/O of n blocks
// occupies the drive for PerIO + n*PerBlock of simulated time; I/Os on one
// drive are serviced FCFS with no overlap, which models a single-spindle or
// single-channel device. Enterprise arrays get their parallelism across
// drives, which is exactly the behaviour the write allocator's
// equal-progress objective (paper §IV-D, objective 3) exists to exploit.
type Profile struct {
	Name     string
	PerIO    sim.Duration // fixed per-I/O overhead (seek/rotate or channel setup)
	PerBlock sim.Duration // transfer time per 4 KiB block
}

// Canonical drive profiles used by the experiments.
var (
	// SSD models the all-SSD mid-range system of §V-A.
	SSD = Profile{Name: "ssd", PerIO: 60 * sim.Microsecond, PerBlock: 2 * sim.Microsecond}
	// HDD models the SAS drives of §V-C: scheduled, write-cached large
	// writes, so the effective per-I/O overhead is well below a raw seek.
	HDD = Profile{Name: "hdd", PerIO: 1200 * sim.Microsecond, PerBlock: 15 * sim.Microsecond}
	// FlashPool models the hybrid SSD+HDD testbed of §V-B: HDD capacity
	// behind an SSD write cache, giving sub-HDD effective write latency.
	FlashPool = Profile{Name: "flashpool", PerIO: 500 * sim.Microsecond, PerBlock: 6 * sim.Microsecond}
)

// WriteReq is a single-block write within a multi-block drive I/O.
type WriteReq struct {
	DBN  block.DBN
	Data []byte // must remain immutable once submitted (CoW guarantees this)
}

// maxImage is the longest image a DBN holds: its length is kept in 16 bits.
const maxImage = math.MaxUint16

// WriteFault describes how an injector perturbs one write I/O.
type WriteFault struct {
	// Delay postpones the completion callback (and the media update) by the
	// given simulated time without occupying the drive — a controller or
	// interrupt hiccup.
	Delay sim.Duration
}

// ReadFault describes how an injector perturbs one read I/O.
type ReadFault struct {
	Delay sim.Duration
}

// Injector is the drive-level fault-injection hook. All methods are called
// synchronously from simulation context and must be deterministic — the
// crash-schedule sweep depends on (seed, event index) reproducing the same
// run. internal/faultinject provides the standard implementation.
type Injector interface {
	// WriteFault is consulted once per submitted write I/O.
	WriteFault(drive string, nblocks int) WriteFault
	// ReadFault is consulted once per submitted read I/O.
	ReadFault(drive string, nblocks int) ReadFault
	// PeekFault reports whether this media read attempt fails (a checksum
	// or media error surfaced to the mount/verification path). Transient
	// faults fail once and succeed on retry; persistent faults keep failing
	// and force RAID reconstruction.
	PeekFault(drive string, dbn block.DBN) bool
	// CrashPrefix is consulted for each write I/O still in flight when the
	// power fails: it returns how many of the I/O's first blocks made it to
	// the media (0..nblocks). 0 models the default all-or-nothing drop; a
	// positive value models a torn multi-block write.
	CrashPrefix(drive string, nblocks int) int
}

// Stats holds cumulative per-drive I/O statistics.
type Stats struct {
	BlocksRead    uint64
	BlocksWritten uint64
	BytesWritten  uint64 // len of each submitted image; a RAID parity write's requests carry none

	// Fault-injection outcomes.
	DelayedIOs     uint64 // I/Os whose completion was delayed
	TornWrites     uint64 // in-flight writes torn by a crash (prefix landed)
	TornBlocksLost uint64 // blocks of torn writes that did not land
	PeekErrors     uint64 // media read attempts failed by injection

	// Images dropped by Forget, and their len counted like BytesWritten.
	Forgotten, ForgottenBytes uint64

	// Each I/O's service time (their Count is the drive's I/Os, their Sum
	// its busy time), and its latency from submission to completion, by
	// kind: the live histograms, which wafl.Stats copies.
	ReadService, WriteService, ReadLatency, WriteLatency *obs.Histogram

	// Recycled records (DESIGN §9): write and read I/Os, and the waits of
	// WriteSync and ReadSync.
	WritePool, ReadPool, WriteWaitPool, ReadWaitPool fifo.PoolStats
}

// Drive is a simulated drive: an array of blocks, each holding a block image,
// plus a service queue.
type Drive struct {
	s       *sim.Scheduler
	name    string
	profile Profile
	nblocks block.DBN

	// ptr and n are the stable storage image: DBN i holds the image whose
	// array starts at ptr[i] and whose length is n[i] — 10 bytes a DBN, not
	// a 24-byte slice header (DESIGN §14). Entries are nil until first
	// written; a parity drive (NewParityDrive) has no tables. Writes land at
	// I/O completion time, never earlier, so a simulated crash (dropping
	// all in-memory state and pending I/O) leaves exactly the committed
	// image.
	ptr []*byte
	n   []uint16

	busyUntil sim.Time
	epoch     uint64 // bumped by DropInFlight; stale completions are discarded
	obsTid    int32  // interned trace track id + 1; 0 = unset
	stats     Stats

	// inj is the optional fault-injection hook; nil means no faults.
	inj Injector
	// inflight tracks submitted-but-incomplete write I/Os in submission
	// order, so a crash can tear them (land a prefix) deterministically.
	inflight []*inflightWrite
	// The recycled records (DESIGN §9). A record a crash dropped never comes
	// back: DropInFlight abandons every outstanding one.
	writePool                   fifo.Pool[*inflightWrite]
	readPool                    fifo.Pool[*readIO]
	writeWaitPool, readWaitPool fifo.Pool[*syncWait]
}

// inflightWrite is one submitted write I/O awaiting completion: the drive's
// own copy of the caller's requests and callback, with the completion
// event's callback, the method value complete, bound once.
type inflightWrite struct {
	d     *Drive
	epoch uint64
	reqs  []WriteReq
	done  func()
	fire  func()
}

// complete lands the write's images on the media, returns the record to
// Drive.writePool and calls done — unless a crash changed the drive's epoch
// while the write was in flight, in which case nothing happens.
func (e *inflightWrite) complete() {
	d := e.d
	if d.epoch != e.epoch {
		return // lost to a crash before completing
	}
	d.removeInflight(e)
	for _, r := range e.reqs {
		d.land(r.DBN, r.Data)
	}
	done := e.done
	clear(e.reqs)
	e.done = nil
	d.writePool.Put(e)
	if done != nil {
		done()
	}
}

// readIO is one submitted read I/O: the drive's copy of the DBNs, the images
// they hold at completion and the caller's callback, with the completion
// event's callback, the method value complete, bound once. It goes back to
// Drive.readPool once done has returned; a read a crash dropped never does.
type readIO struct {
	d     *Drive
	epoch uint64
	dbns  []block.DBN
	out   [][]byte
	done  func([][]byte)
	fire  func()
}

func (r *readIO) complete() {
	d := r.d
	if d.epoch != r.epoch {
		return // lost to a crash before completing
	}
	for _, dbn := range r.dbns {
		r.out = append(r.out, d.Peek(dbn))
	}
	if r.done != nil {
		r.done(r.out)
	}
	clear(r.out)
	r.dbns, r.out, r.done = r.dbns[:0], r.out[:0], nil
	d.readPool.Put(r)
}

// syncWait is one thread's wait in ReadSync or WriteSync, with the I/O's
// completion callbacks bound once. It goes back to its pool when the waiting
// thread has seen its I/O complete; a thread killed while waiting never
// returns it.
type syncWait struct {
	wq     *sim.WaitQueue
	landed bool
	out    [][]byte
	read   func([][]byte) // readLanded
	write  func()         // land
}

func (w *syncWait) readLanded(bs [][]byte) {
	w.out = append(w.out[:0], bs...)
	w.land()
}

func (w *syncWait) land() {
	w.landed = true
	w.wq.Signal()
}

// newWait returns a wait on a queue named name.
func newWait(s *sim.Scheduler, name string) *syncWait {
	w := &syncWait{wq: sim.NewWaitQueue(s, name)}
	w.read, w.write = w.readLanded, w.land
	return w
}

// wait blocks t until the I/O w waits for completes, leaving w ready for its
// next wait.
func (w *syncWait) wait(t *sim.Thread) {
	if !w.landed {
		w.wq.Wait(t)
	}
	w.landed = false
}

// track returns the drive's trace track id, interning it on first use.
func (d *Drive) track(tr *obs.Tracer) int32 {
	if d.obsTid == 0 {
		d.obsTid = tr.Track(obs.PidStorage, d.name) + 1
	}
	return d.obsTid - 1
}

// NewDrive creates a drive of nblocks blocks with the given service profile.
func NewDrive(s *sim.Scheduler, name string, profile Profile, nblocks block.DBN) *Drive {
	d := NewParityDrive(s, name, profile, nblocks)
	d.ptr, d.n = make([]*byte, nblocks), make([]uint16, nblocks)
	return d
}

// NewParityDrive creates a drive whose writes carry no image, as a RAID
// group's parity drive, whose rows the group keeps: it times, counts and
// fault-injects its I/O, reads as never written and has no media table.
func NewParityDrive(s *sim.Scheduler, name string, profile Profile, nblocks block.DBN) *Drive {
	d := &Drive{s: s, name: name, profile: profile, nblocks: nblocks, stats: Stats{
		ReadService:  obs.NewHistogram("storage.io_service:read"),
		WriteService: obs.NewHistogram("storage.io_service:write"),
		ReadLatency:  obs.NewHistogram("storage.io_latency:read"),
		WriteLatency: obs.NewHistogram("storage.io_latency:write"),
	}}
	d.writePool = fifo.NewPool(&d.stats.WritePool, func() *inflightWrite {
		e := &inflightWrite{d: d}
		e.fire = e.complete
		return e
	})
	d.readPool = fifo.NewPool(&d.stats.ReadPool, func() *readIO {
		r := &readIO{d: d}
		r.fire = r.complete
		return r
	})
	d.writeWaitPool = fifo.NewPool(&d.stats.WriteWaitPool, func() *syncWait { return newWait(s, name+".writesync") })
	d.readWaitPool = fifo.NewPool(&d.stats.ReadWaitPool, func() *syncWait { return newWait(s, name+".readsync") })
	return d
}

// Name returns the drive's debug name.
func (d *Drive) Name() string { return d.name }

// Blocks returns the drive capacity in blocks.
func (d *Drive) Blocks() block.DBN { return d.nblocks }

// Stats returns the drive's I/O statistics: the counters by value, the
// histograms live.
func (d *Drive) Stats() Stats { return d.stats }

// SetInjector attaches a fault injector (nil disables fault injection).
func (d *Drive) SetInjector(in Injector) { d.inj = in }

// InflightMultiBlock returns how many of the writes submitted but not yet
// completed (or lost) span two or more blocks — the ones a crash-time torn-write fault can actually tear.
func (d *Drive) InflightMultiBlock() int {
	n := 0
	for _, e := range d.inflight {
		if len(e.reqs) >= 2 {
			n++
		}
	}
	return n
}

// removeInflight drops one completed entry; in-flight counts are small
// (drive queue depth), so a linear scan is fine.
func (d *Drive) removeInflight(e *inflightWrite) {
	for i, x := range d.inflight {
		if x == e {
			d.inflight = append(d.inflight[:i], d.inflight[i+1:]...)
			return
		}
	}
}

// service reserves the drive for an I/O of n blocks, records its service
// time and latency in svc and lat, and returns its completion time. kind
// labels the trace span ("read"/"write").
func (d *Drive) service(n int, kind string, svc, lat *obs.Histogram) sim.Time {
	start := d.s.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	dur := d.profile.PerIO + sim.Duration(n)*d.profile.PerBlock
	d.busyUntil = start + sim.Time(dur)
	svc.Observe(int64(dur))
	lat.Observe(int64(d.busyUntil - d.s.Now()))
	if tr := d.s.Tracer(); tr != nil {
		tr.SpanArg(obs.PidStorage, d.track(tr), "io", kind, int64(start), int64(d.busyUntil), int64(n))
	}
	return d.busyUntil
}

// Write submits one write I/O covering reqs and calls done (in scheduler
// context) when it completes. The data lands on the media at completion.
func (d *Drive) Write(reqs []WriteReq, done func()) {
	if len(reqs) == 0 {
		if done != nil {
			d.s.After(0, done)
		}
		return
	}
	for _, r := range reqs {
		if r.DBN >= d.nblocks || len(r.Data) > maxImage {
			panic(fmt.Sprintf("storage: write beyond drive %s: dbn %d >= %d or image of %d > %d", d.name, r.DBN, d.nblocks, len(r.Data), maxImage))
		}
		d.stats.BytesWritten += uint64(len(r.Data))
	}
	var wf WriteFault
	if d.inj != nil {
		wf = d.inj.WriteFault(d.name, len(reqs))
	}
	completion := d.service(len(reqs), "write", d.stats.WriteService, d.stats.WriteLatency)
	d.stats.BlocksWritten += uint64(len(reqs))
	// Copy the requests into a recycled record; payloads are immutable by
	// contract, so the caller may reuse its slice once Write returns.
	entry := d.writePool.Get()
	entry.epoch, entry.reqs, entry.done = d.epoch, append(entry.reqs[:0], reqs...), done
	d.inflight = append(d.inflight, entry)
	if wf.Delay > 0 {
		d.stats.DelayedIOs++
	}
	d.s.After(sim.Duration(completion-d.s.Now())+wf.Delay, entry.fire)
}

// Read submits one read I/O for the given blocks and calls done with the
// block contents when it completes. Missing (never-written) blocks read as
// nil; callers treat nil as a zero block. The slice done receives is the
// drive's and valid only during the call; the images in it are the media's.
// dbns is copied, so the caller may reuse it once Read returns.
func (d *Drive) Read(dbns []block.DBN, done func([][]byte)) {
	if len(dbns) == 0 {
		if done != nil {
			d.s.After(0, func() { done(nil) })
		}
		return
	}
	var rf ReadFault
	if d.inj != nil {
		rf = d.inj.ReadFault(d.name, len(dbns))
		if rf.Delay > 0 {
			d.stats.DelayedIOs++
		}
	}
	completion := d.service(len(dbns), "read", d.stats.ReadService, d.stats.ReadLatency)
	d.stats.BlocksRead += uint64(len(dbns))
	r := d.readPool.Get()
	r.epoch, r.dbns, r.done = d.epoch, append(r.dbns, dbns...), done
	d.s.After(sim.Duration(completion-d.s.Now())+rf.Delay, r.fire)
}

// ReadSync performs a read I/O and blocks the calling simulated thread until
// it completes. The result is the drive's and valid until the thread next
// blocks; the images in it are the media's.
func (d *Drive) ReadSync(t *sim.Thread, dbns []block.DBN) [][]byte {
	w := d.readWaitPool.Get()
	d.Read(dbns, w.read)
	w.wait(t)
	d.readWaitPool.Put(w)
	return w.out
}

// WriteSync performs a write I/O and blocks the calling simulated thread
// until it completes.
func (d *Drive) WriteSync(t *sim.Thread, reqs []WriteReq) {
	w := d.writeWaitPool.Get()
	d.Write(reqs, w.write)
	w.wait(t)
	d.writeWaitPool.Put(w)
}

// Peek returns the committed media content of dbn without timing effects —
// the simulator's god view of the stable image, never subject to fault
// injection. RAID reconstruction and test assertions use it. The image is
// the array written, not a copy, with its capacity cut to its length; a
// parity drive's DBNs read nil.
func (d *Drive) Peek(dbn block.DBN) []byte {
	if d.ptr == nil {
		return nil
	}
	return unsafe.Slice(d.ptr[dbn], d.n[dbn])
}

// land makes img the committed image of dbn. The media keeps img's own array,
// so Peek hands back the very array written; a nil image stays nil (a nil
// pointer of length 0) and a non-nil empty one non-nil. A parity drive
// lands nothing.
func (d *Drive) land(dbn block.DBN, img []byte) {
	if d.ptr == nil {
		if img != nil {
			panic(fmt.Sprintf("storage: image written to parity drive %s", d.name))
		}
		return
	}
	d.ptr[dbn], d.n[dbn] = unsafe.SliceData(img), uint16(len(img))
}

// PeekChecked is the fallible media read the file system's mount and
// verification paths use: it returns the committed content of dbn, or
// ok=false when the injector fails this attempt (a media/checksum error).
// Transient faults succeed on retry; persistent faults force the caller to
// RAID reconstruction.
func (d *Drive) PeekChecked(dbn block.DBN) ([]byte, bool) {
	if d.inj != nil && d.inj.PeekFault(d.name, dbn) {
		d.stats.PeekErrors++
		return nil, false
	}
	return d.Peek(dbn), true
}

// Forget drops the image at dbn, which then reads as never written: the god
// view's other half, untimed like Peek. Its caller knows that nothing can
// reach the block any more — no committed tree, no explicit parity row.
func (d *Drive) Forget(dbn block.DBN) {
	if d.ptr != nil && d.ptr[dbn] != nil {
		d.stats.Forgotten++
		d.stats.ForgottenBytes += uint64(d.n[dbn])
		d.land(dbn, nil)
	}
}

// DropInFlight models a power loss: every write I/O submitted but not yet
// completed is discarded — its completion callback never fires. Without an
// injector nothing of a dropped I/O lands on the media; with one, each
// in-flight write may be torn, landing only a prefix of its blocks (the
// injector's CrashPrefix decides, in submission order). The stable image
// is otherwise exactly the set of writes that had completed before the
// crash. Every record outstanding — a write or read in flight, a thread's
// wait — is abandoned: its completion is stale, and its waiter dies with the
// crash. It returns how many blocks of each dropped write landed, in
// submission order.
func (d *Drive) DropInFlight() []int {
	d.epoch++
	d.busyUntil = d.s.Now()
	prefixes := make([]int, len(d.inflight))
	for i, e := range d.inflight {
		p := 0
		if d.inj != nil {
			p = min(d.inj.CrashPrefix(d.name, len(e.reqs)), len(e.reqs))
		}
		prefixes[i] = p
		if p > 0 {
			for _, r := range e.reqs[:p] {
				d.land(r.DBN, r.Data)
			}
			d.stats.TornWrites++
			d.stats.TornBlocksLost += uint64(len(e.reqs) - p)
		}
	}
	d.inflight = nil
	d.writePool.Abandon()
	d.readPool.Abandon()
	d.writeWaitPool.Abandon()
	d.readWaitPool.Abandon()
	return prefixes
}
