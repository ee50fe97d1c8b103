package wafl

import (
	"fmt"

	"wafl/internal/aggregate"
	"wafl/internal/bcache"
	"wafl/internal/block"
	"wafl/internal/nvlog"
	"wafl/internal/obs"
	"wafl/internal/sim"
)

// ClientCtx is a closed-loop client session: a simulated thread issuing
// operations against the system, one at a time, measuring per-op latency.
// Workload generators receive a ClientCtx and drive it. Operations address
// volumes by global index; the owning member is resolved per op (from the
// file handle's embedded constituent id when present, else the volume).
type ClientCtx struct {
	sys *System
	t   *sim.Thread
	id  int

	// threadIdx is the client thread's scheduler index, recorded so a
	// member crash can take down the clients pinned to it
	// (CrashMember(i, clients...)).
	threadIdx int

	// op is the body of the client's in-flight message for Write, Read and
	// Getattr.
	op clientOp

	// per-client statistics
	Ops        uint64
	Blocks     uint64
	Stalled    uint64
	Shed       uint64   // bulk writes refused by admission control
	AdmitDelay Duration // cumulative bulk admission delay
}

// ClientThread spawns a closed-loop client running fn. Call before Run /
// Measure.
func (sys *System) ClientThread(name string, fn func(*ClientCtx)) *ClientCtx {
	c := &ClientCtx{sys: sys, id: len(sys.clients), threadIdx: sys.s.ThreadMark()}
	c.op.sys = sys
	c.op.write, c.op.read, c.op.stat = c.op.writeBlocks, c.op.readBlock, c.op.lookup
	sys.clients = append(sys.clients, c)
	sys.s.Go(name, sim.CatClient, func(t *sim.Thread) {
		c.t = t
		fn(c)
	})
	return c
}

// Alive reports whether the client should keep issuing operations.
func (c *ClientCtx) Alive() bool { return !c.sys.stopped }

// Now returns the current simulated time.
func (c *ClientCtx) Now() Time { return c.t.Now() }

// Think blocks the client for d without consuming CPU (client-side delay /
// open-loop pacing).
func (c *ClientCtx) Think(d Duration) { c.t.Sleep(d) }

// Rand returns a deterministic pseudo-random int in [0, n).
func (c *ClientCtx) Rand(n int64) int64 {
	return c.sys.s.Rand().Int63n(n)
}

// RandFloat64 returns a deterministic pseudo-random float in [0, 1) — the
// open-loop generators use it for exponential inter-arrival sampling.
func (c *ClientCtx) RandFloat64() float64 {
	return c.sys.s.Rand().Float64()
}

// WaitQueue is a parking lot for simulated client threads — the queueing
// primitive open-loop workloads use to hand arrived operations to worker
// threads (re-exported from the simulation kernel).
type WaitQueue = sim.WaitQueue

// NewWaitQueue creates a wait queue on the system's scheduler. name is used
// in diagnostics and trace spans.
func (sys *System) NewWaitQueue(name string) *WaitQueue {
	return sim.NewWaitQueue(sys.s, name)
}

// Wait parks the client on q until another client Signals it.
func (c *ClientCtx) Wait(q *WaitQueue) { q.Wait(c.t) }

// payload builds the pattern content for a block write. The pattern is
// derived from the file handle as the client holds it (member tag
// included), so content checks work with the handle alone. The array is the
// one allocation a client write makes per block, and its only copy: the
// NVLog record logs it and the buffer adopts it (fs.File.WriteBlock).
func (sys *System) payload(ino uint64, fbn FBN, tag byte) []byte {
	n := sys.cfg.PayloadBytes
	if n <= 0 {
		n = 64
	}
	if n > block.Size {
		n = block.Size
	}
	p := make([]byte, n)
	fillPayload(p, ino, fbn, tag)
	return p
}

// fillPayload writes the pattern into p: byte i is
// byte(ino) ^ byte(fbn>>(i%24)) ^ tag ^ byte(i). The first three terms
// repeat every 24 bytes, so they come from a table built once per block.
func fillPayload(p []byte, ino uint64, fbn FBN, tag byte) {
	var t [24]byte
	for j := range t {
		t[j] = byte(uint64(fbn)>>j) ^ byte(ino) ^ tag
	}
	for off := 0; off < len(p); off += len(t) {
		chunk := p[off:min(off+len(t), len(p))]
		for j := range chunk {
			chunk[j] = t[j] ^ byte(off+j)
		}
	}
}

// reserveLog reserves NVRAM space on member m for an op's records, stalling
// the client (and requesting CPs) until space frees up. Returns the op's
// reservation and the stall time.
func (c *ClientCtx) reserveLog(m *Member, bytes uint64) (nvlog.Reservation, Duration) {
	var stalled Duration
	res, ok := m.log.Reserve(bytes)
	for !ok {
		// Back-to-back CP: both halves occupied. Wait for the running CP.
		start := c.t.Now()
		c.Stalled++
		m.client.Stalls++
		m.engine.RequestCP()
		m.engine.WaitCPDone(c.t)
		stalled += Duration(c.t.Now() - start)
		if tr := c.t.Tracer(); tr != nil {
			tr.Span(obs.PidThreads, c.t.TrackID(), "client", "nvram stall",
				int64(start), int64(c.t.Now()))
			tr.Observe("client.stall", int64(c.t.Now()-start))
		}
		res, ok = m.log.Reserve(bytes)
	}
	return res, stalled
}

// stallRestore charges one restore-gate stall round: request a CP (the gate
// reopens when the CP applying the restore commits) and wait it out.
func (c *ClientCtx) stallRestore(m *Member) {
	c.Stalled++
	m.client.Stalls++
	m.engine.RequestCP()
	m.engine.WaitCPDone(c.t)
}

// logged runs one namespace operation the way every logged client op does:
// reserve the record's NVRAM space (where overload stalls the op), then one
// message in local volume lv's Logical affinity — namespace operations work
// outside any single stripe — that charges cost, applies rec (Member.apply
// fills in the identifiers it assigns) and, if the operation took effect,
// appends it; then release. While lv's SnapRestore gate is closed the op
// stalls and retries; a restore itself closes the gate rather than waiting on
// it. Gate check, apply and append share the message with no yield between
// them, so the namespace change and its record are atomically adjacent and no
// record can land after a restore record the volume hasn't applied yet — the
// invariant NVRAM replay depends on. Reports whether the operation took
// effect.
func (c *ClientCtx) logged(m *Member, lv int, cost Duration, rec *nvlog.Record) (ok bool) {
	res, _ := c.reserveLog(m, rec.Size())
	v := m.a.Volume(lv)
	for {
		gated := false
		m.call(c.t, m.logicalAff(lv), sim.CatClient, func(wt *sim.Thread) {
			if rec.Kind != nvlog.OpSnapRestore && v.RestorePending() {
				gated = true
				return
			}
			wt.Consume(cost)
			if ok = m.apply(rec); ok {
				res.Append(*rec)
			}
		})
		if !gated {
			res.Release()
			return ok
		}
		c.stallRestore(m)
	}
}

// awaitCP blocks until durable reports that a committed consistency point
// covers the op: it requests a CP and waits it out, again if the request
// landed after the running CP's freeze cut. An op acknowledged after awaitCP
// survives any crash without its log record.
func (c *ClientCtx) awaitCP(m *Member, durable func() bool) {
	m.engine.RequestCP()
	for !durable() {
		m.engine.WaitCPDone(c.t)
		if !durable() {
			m.engine.RequestCP()
		}
	}
}

// ack completes a client op, served or refused: the completion cost, the
// op's trace span (when named; with a latency observation when hist is too)
// and the op and latency counters, which must move together — Results.Ops is
// the latency histogram's count. Returns the op latency.
func (c *ClientCtx) ack(m *Member, start Time, cost Duration, span, hist string, arg int64) Duration {
	c.t.Consume(cost)
	lat := Duration(c.t.Now() - start)
	if tr := c.t.Tracer(); tr != nil && span != "" {
		tr.SpanArg(obs.PidThreads, c.t.TrackID(), "client", span, int64(start), int64(c.t.Now()), arg)
		if hist != "" {
			tr.Observe(hist, int64(lat))
		}
	}
	c.Ops++
	m.client.Ops++
	m.lat.Observe(int64(lat))
	return lat
}

// clientOp is the message body of a client's Write, Read or Getattr, kept in
// its ClientCtx. Call blocks, so a client has at most one message in flight
// and one record serves them all: the op fills in what its body reads and
// sends one of write, read and stat, method values ClientThread bound once.
type clientOp struct {
	sys   *System
	m     *Member
	v     *aggregate.Volume
	lv    int
	li    uint64 // member-local inode
	ino   uint64 // the handle as the client holds it: the payload pattern's
	fbn   FBN    // the message's first block
	n     int    // blocks the message writes
	tag   byte
	res   nvlog.Reservation
	gated bool // the write found the volume's SnapRestore gate closed
	write func(*sim.Thread)
	read  func(*sim.Thread)
	stat  func(*sim.Thread)
}

// writeBlocks logs and dirties blocks [fbn, fbn+n) inside their stripe
// affinity. Gate check and appends share the message: no yield between them,
// so no write record can follow an unapplied restore record.
func (op *clientOp) writeBlocks(wt *sim.Thread) {
	sys, m, v := op.sys, op.m, op.v
	if v.RestorePending() {
		op.gated = true
		return
	}
	wt.Consume(sim.Duration(op.n) * sys.cfg.Costs.ClientPerBlock)
	f := v.LookupFile(op.li)
	if f == nil {
		panic(fmt.Sprintf("wafl: write to nonexistent ino %d", op.ino))
	}
	for fbn := op.fbn; fbn < op.fbn+FBN(op.n); fbn++ {
		// Post-recovery write path: install the block's existing location
		// (and the indirect path) so the overwrite frees the old block
		// instead of leaking it.
		v.EnsureL0Resident(f, fbn)
		// Log + dirty with no simulation primitive in between: atomic with
		// respect to CP freezes. Records carry member-local coordinates. The
		// record and the buffer share the one payload array, and nothing
		// writes into it again (fs.File.WriteBlock).
		data := sys.payload(op.ino, fbn, op.tag)
		op.res.Append(nvlog.Record{
			Kind: nvlog.OpWrite, Vol: uint32(op.lv), Ino: op.li,
			FBN: fbn, Data: data, LogicalBytes: block.Size,
		})
		f.WriteBlock(fbn, data)
		if m.bc != nil {
			// A freshly written block is buffer-cache resident.
			m.bc.Insert(bcache.Key{Vol: op.lv, Ino: op.li, FBN: fbn})
		}
	}
	v.MarkDirty(f)
}

// readBlock reads block fbn inside its stripe affinity.
func (op *clientOp) readBlock(wt *sim.Thread) {
	m, v := op.m, op.v
	wt.Consume(op.sys.cfg.Costs.ClientPerBlock)
	f := v.LookupFile(op.li)
	if f == nil {
		return
	}
	if m.bc == nil {
		// Pre-cache behavior: demand-load installs into the in-memory tree
		// forever, so a block read once never pays media again.
		v.ReadFileBlock(wt, f, op.fbn)
		return
	}
	// Buffer-cache read path: residency decides whether the read pays media
	// latency; the in-memory trees stay the content authority but no longer
	// model an unbounded cache.
	key := bcache.Key{Vol: op.lv, Ino: op.li, FBN: op.fbn}
	if m.bc.Touch(key) {
		if tr := wt.Tracer(); tr != nil {
			tr.Instant(obs.PidThreads, wt.TrackID(), "client", "bcache hit", int64(wt.Now()))
		}
		return // memory hit: no media I/O
	}
	miss := wt.Now()
	v.ReadMediaBlock(wt, f, op.fbn)
	m.bc.Insert(key)
	if tr := wt.Tracer(); tr != nil {
		tr.Span(obs.PidThreads, wt.TrackID(), "client", "bcache miss",
			int64(miss), int64(wt.Now()))
		tr.Observe("client.bcache.miss", int64(wt.Now()-miss))
	}
}

// lookup is Getattr's metadata read inside the volume's Logical affinity.
func (op *clientOp) lookup(wt *sim.Thread) {
	wt.Consume(op.sys.cfg.Costs.ClientOp / 2)
	op.v.LookupFile(op.li)
}

// Write performs one client write of nblocks 4 KiB blocks at fbn: it logs
// to NVRAM, then dirties the buffers inside the owning stripe affinities
// (one message per stripe touched), and returns when the (logged) operation
// is acknowledged — long before the data reaches a drive, as in the real
// system.
//
// Writes respect the volume's SnapRestore gate: while a restore is pending
// or uncommitted the op stalls, so no write record can land after a restore
// record the volume has not applied.
func (c *ClientCtx) Write(vol int, ino uint64, fbn FBN, nblocks int) Duration {
	return c.WriteTag(vol, ino, fbn, nblocks, 0)
}

// WriteTag is Write with a caller-chosen payload tag. The default pattern
// content depends only on (ino, fbn), so overwrites are byte-identical;
// tagged writes give tests distinguishable generations — the only way to
// prove a snapshot image stayed frozen while the active file system churned
// over it.
func (c *ClientCtx) WriteTag(vol int, ino uint64, fbn FBN, nblocks int, tag byte) Duration {
	sys := c.sys
	m, lv, li := sys.resolve(vol, ino)
	start := c.t.Now()
	c.t.Consume(sys.cfg.Costs.ClientOp)
	// A payload is at most one block, so every record has the same size.
	recBytes := uint64(nblocks) * nvlog.Record{LogicalBytes: block.Size}.Size()
	// Reserve NVRAM space up front (this is where overload stalls the op);
	// the records themselves are appended inside the stripe messages,
	// immediately adjacent to dirtying each buffer, so a record and its
	// dirty state always land in the same CP generation. A SnapRestore
	// landing mid-op closes the volume's gate: the touched stripes abort,
	// the reservation is released, and the whole op retries after the
	// restore commits — re-appending already-logged blocks is idempotent
	// (same content), and the pre-restore records are discarded identically
	// in the live and replay legs.
	var stalled Duration
	op := &c.op
	op.m, op.v, op.lv, op.li, op.ino, op.tag = m, m.a.Volume(lv), lv, li, ino, tag
	for {
		var st Duration
		op.res, st = c.reserveLog(m, recBytes)
		stalled += st
		op.gated = false
		// Group contiguous blocks by owning stripe affinity: one message each.
		for lo := 0; lo < nblocks && !op.gated; {
			aff := m.stripeAff(lv, fbn+FBN(lo))
			hi := lo + 1
			for hi < nblocks && m.stripeAff(lv, fbn+FBN(hi)) == aff {
				hi++
			}
			op.fbn, op.n = fbn+FBN(lo), hi-lo
			m.call(c.t, aff, sim.CatClient, op.write)
			lo = hi
		}
		op.res.Release()
		if !op.gated {
			break
		}
		rst := c.t.Now()
		c.stallRestore(m)
		stalled += Duration(c.t.Now() - rst)
	}
	// Landed writes convert this file's ingest reservation (if it was
	// placed) into consumption the free-space counters now carry.
	m.consumePlacement(lv, li, int64(nblocks))
	m.maybeTriggerCP()
	c.Blocks += uint64(nblocks)
	m.client.BlocksWritten += uint64(nblocks)
	m.client.StallTime += stalled
	return c.ack(m, start, 0, "write", "client.write", int64(nblocks))
}

// admitBulk runs the bulk-class admission gate against member m's NVRAM
// watermarks: it returns true when the op may proceed (possibly after
// delaying), false when the op is shed. Latency-sensitive ops never pass
// through here. The bulkHeld latch provides back-to-back-CP hysteresis:
// once bulk is held it stays held until the active half is below ResumeAt
// AND no frozen half is draining, so the fullness cliff at a half-switch
// does not reopen the gate while the CP is still paying down the log.
func (c *ClientCtx) admitBulk(m *Member) bool {
	ac := &c.sys.cfg.Admission
	if !ac.Enabled {
		return true
	}
	var delayed Duration
	for {
		full := m.log.Fullness()
		if m.bulkHeld {
			if full < ac.ResumeAt && !m.log.HasFrozen() {
				m.bulkHeld = false
			}
		} else if full >= ac.BulkDelayAt {
			m.bulkHeld = true
		}
		if !m.bulkHeld {
			return true
		}
		if full >= ac.BulkShedAt || (ac.MaxDelay > 0 && delayed >= ac.MaxDelay) {
			c.Shed++
			m.admission.Shed++
			m.maybeTriggerCP()
			if tr := c.t.Tracer(); tr != nil {
				tr.Instant(obs.PidThreads, c.t.TrackID(), "client", "bulk shed", int64(c.t.Now()))
			}
			return false
		}
		// Delay round: nudge a CP if none is draining, sleep, re-check.
		start := c.t.Now()
		m.maybeTriggerCP()
		c.t.Sleep(ac.DelayStep)
		d := Duration(c.t.Now() - start)
		delayed += d
		c.AdmitDelay += d
		m.admission.Delay += d
		if tr := c.t.Tracer(); tr != nil {
			tr.Span(obs.PidThreads, c.t.TrackID(), "client", "admission delay",
				int64(start), int64(c.t.Now()))
			tr.Observe("client.admit", int64(d))
		}
	}
}

// WriteBulk performs a bulk-class write: identical to Write except it is
// subject to admission control — under NVRAM pressure the op is delayed,
// and past the shed watermark it is refused outright. Returns the op
// latency (including any admission delay) and whether the write was
// admitted; a shed write performed no work and was not acknowledged.
// Latency-sensitive clients use Write, which is never gated.
func (c *ClientCtx) WriteBulk(vol int, ino uint64, fbn FBN, nblocks int) (Duration, bool) {
	m, _, _ := c.sys.resolve(vol, ino)
	start := c.t.Now()
	if !c.admitBulk(m) {
		// A refused op still costs the client round trip. Consuming
		// simulated time here also keeps a hammering retry loop from
		// livelocking the single-threaded simulation.
		c.t.Consume(c.sys.cfg.Costs.ClientOp)
		return Duration(c.t.Now() - start), false
	}
	c.WriteTag(vol, ino, fbn, nblocks, 0)
	return Duration(c.t.Now() - start), true
}

// Read performs one client read of nblocks blocks at fbn, demand-loading
// missing blocks from the drives with timed I/O.
func (c *ClientCtx) Read(vol int, ino uint64, fbn FBN, nblocks int) Duration {
	sys := c.sys
	m, lv, li := sys.resolve(vol, ino)
	start := c.t.Now()
	op := &c.op
	op.m, op.v, op.lv, op.li = m, m.a.Volume(lv), lv, li
	for b := 0; b < nblocks; b++ {
		op.fbn = fbn + FBN(b)
		m.call(c.t, m.stripeAff(lv, op.fbn), sim.CatClient, op.read)
	}
	m.client.BlocksRead += uint64(nblocks)
	return c.ack(m, start, sys.cfg.Costs.ClientOp, "read", "client.read", int64(nblocks))
}

// Create makes a new file on the (globally addressed) volume and returns
// its handle: the member-local inode number with the owning constituent id
// in the top bits (bare inode on member 0). The create executes first
// (assigning the inode) and is then logged to NVRAM with that inode
// number, so replay is exact; the client is not acknowledged until the
// record is logged.
func (c *ClientCtx) Create(vol int, maxBlocks uint64) uint64 {
	m, lv := c.sys.volMember(vol)
	start := c.t.Now()
	cost := c.sys.cfg.Costs.ClientOp
	rec := nvlog.Record{Kind: nvlog.OpCreate, Vol: uint32(lv), MaxBlocks: maxBlocks}
	c.logged(m, lv, cost, &rec)
	// Bind the oldest unbound placement charge (if the volume came from
	// PlaceFile) to this inode, so its writes decay the reservation.
	m.bindPlacement(lv, rec.Ino)
	c.ack(m, start, cost, "", "", 0)
	m.maybeTriggerCP()
	return memberHandle(m.id, rec.Ino)
}

// CreatePlaced creates a new file on the member the placement policy
// picks (capacity- and load-aware; see System.PlaceFile) and returns the
// chosen global volume along with the file handle.
func (c *ClientCtx) CreatePlaced(maxBlocks uint64) (vol int, ino uint64) {
	vol = c.sys.PlaceFile(maxBlocks)
	return vol, c.Create(vol, maxBlocks)
}

// Delete removes a file. The namespace change is immediate; the file's
// blocks are reclaimed by the next consistency point (deferred deletion).
// Returns false if the inode does not exist.
func (c *ClientCtx) Delete(vol int, ino uint64) bool {
	m, lv, li := c.sys.resolve(vol, ino)
	start := c.t.Now()
	cost := c.sys.cfg.Costs.ClientOp / 2
	ok := c.logged(m, lv, cost, &nvlog.Record{Kind: nvlog.OpDelete, Vol: uint32(lv), Ino: li})
	if ok {
		// Refund whatever part of the file's ingest reservation its writes
		// never consumed; without this, create/delete churn starves the
		// placement score's reservation-net free space.
		m.refundPlacement(lv, li)
		if m.bc != nil {
			// Coherence: a later create can reuse this inode number; stale
			// resident blocks must not satisfy its reads.
			m.bc.InvalidateFile(lv, li)
		}
		m.maybeTriggerCP()
	}
	c.ack(m, start, cost, "", "", 0)
	return ok
}

// Getattr models a metadata read: a cheap operation in the volume's
// logical affinity.
func (c *ClientCtx) Getattr(vol int, ino uint64) Duration {
	sys := c.sys
	m, lv, li := sys.resolve(vol, ino)
	start := c.t.Now()
	op := &c.op
	op.v, op.li = m.a.Volume(lv), li
	m.call(c.t, m.logicalAff(lv), sim.CatClient, op.stat)
	return c.ack(m, start, sys.cfg.Costs.ClientOp/2, "", "", 0)
}

// SnapCreate takes a point-in-time snapshot of the volume and returns its
// ID. The request is NVRAM-logged and then driven to durability: the call
// blocks until a consistency point has materialized the image and committed
// it to the superblock-reachable metadata, so an acknowledged SnapCreate
// always survives a crash.
func (c *ClientCtx) SnapCreate(vol int) uint64 {
	m, lv := c.sys.volMember(vol)
	start := c.t.Now()
	cost := c.sys.cfg.Costs.ClientOp
	rec := nvlog.Record{Kind: nvlog.OpSnapCreate, Vol: uint32(lv)}
	c.logged(m, lv, cost, &rec)
	v := m.a.Volume(lv)
	c.awaitCP(m, func() bool { return v.SnapshotExists(rec.Ino) })
	c.ack(m, start, cost, "snap-create", "", int64(rec.Ino))
	return rec.Ino
}

// SnapDelete removes a snapshot. The namespace change is immediate and the
// op is NVRAM-logged; exclusively-held blocks are reclaimed by the next
// consistency point (deferred, like file deletion). Returns false if the
// snapshot does not exist.
func (c *ClientCtx) SnapDelete(vol int, id uint64) bool {
	m, lv := c.sys.volMember(vol)
	start := c.t.Now()
	cost := c.sys.cfg.Costs.ClientOp / 2
	ok := c.logged(m, lv, cost, &nvlog.Record{Kind: nvlog.OpSnapDelete, Vol: uint32(lv), Ino: id})
	if ok {
		m.maybeTriggerCP()
	}
	c.ack(m, start, cost, "", "", 0)
	return ok
}

// SnapRestore reverts the volume to snapshot id without copying data
// blocks: the request is NVRAM-logged and queued, volatile state is
// discarded immediately, and the next consistency point rebinds the active
// file system to the snapshot's frozen image (O(metadata) — bitmap words
// plus inode-file blocks). The volume's client gate closes at the request
// and reopens when the applying CP commits; this call blocks until then, so
// an acknowledged SnapRestore always survives a crash. Returns false if the
// snapshot does not exist (nor is pending).
func (c *ClientCtx) SnapRestore(vol int, id uint64) bool {
	m, lv := c.sys.volMember(vol)
	start := c.t.Now()
	cost := c.sys.cfg.Costs.ClientOp
	ok := c.logged(m, lv, cost, &nvlog.Record{Kind: nvlog.OpSnapRestore, Vol: uint32(lv), Ino: id})
	if ok {
		v := m.a.Volume(lv)
		c.awaitCP(m, func() bool { return !v.RestorePending() })
	}
	c.ack(m, start, cost, "snap-restore", "client.restore", int64(id))
	return ok
}

// CloneCreate binds a free clone slot on the parent's member as a writable
// clone of snapshot snapID and returns the clone's global volume index. The
// slot scan, parent delete guard, and NVRAM record land in one affinity
// message, so two in-flight creates can never race for a slot or a deleted
// snapshot. Blocks until a consistency point has materialized the bind (the
// clone starts by sharing every base block with the parent snapshot —
// no data is copied). Returns (-1, false) if the snapshot does not exist or
// every clone slot on the member is taken.
func (c *ClientCtx) CloneCreate(parentVol int, snapID uint64) (int, bool) {
	m, plv := c.sys.volMember(parentVol)
	start := c.t.Now()
	cost := c.sys.cfg.Costs.ClientOp
	rec := nvlog.Record{Kind: nvlog.OpCloneCreate, Ino: snapID, FBN: FBN(plv)}
	slot := -1
	if c.logged(m, plv, cost, &rec) {
		slot = int(rec.Vol)
		c.awaitCP(m, m.a.Volume(slot).IsClone)
	}
	c.ack(m, start, cost, "clone-create", "client.clone", int64(slot))
	if slot < 0 {
		return -1, false
	}
	return c.sys.globalVol(m.id, slot), true
}

// CloneSplit starts splitting the clone from its parent snapshot: each
// subsequent consistency point block-copies a bounded batch of still-shared
// base blocks through the normal COW write path until none remain, then the
// parent holds and delete guard drop. The call is NVRAM-logged and returns
// as soon as the split is queued (the copy is background work); poll
// System.CloneSplitDone or Flush to drive it to completion. Returns false if
// the volume is not a clone.
func (c *ClientCtx) CloneSplit(vol int) bool {
	m, lv := c.sys.volMember(vol)
	start := c.t.Now()
	cost := c.sys.cfg.Costs.ClientOp
	ok := c.logged(m, lv, cost, &nvlog.Record{Kind: nvlog.OpCloneSplit, Vol: uint32(lv)})
	if ok {
		m.engine.RequestCP()
	}
	c.ack(m, start, cost, "", "", 0)
	return ok
}

// SnapRead reads nblocks blocks at fbn of inode ino from a snapshot's
// frozen image, with timed media walks (snapshot trees live only on media).
// Returns false if the snapshot, or the inode within it, does not exist.
func (c *ClientCtx) SnapRead(vol int, snapID, ino uint64, fbn FBN, nblocks int) (Duration, bool) {
	sys := c.sys
	m, lv, li := sys.resolve(vol, ino)
	start := c.t.Now()
	ok := true
	v := m.a.Volume(lv)
	for b := 0; b < nblocks; b++ {
		fbn := fbn + FBN(b)
		m.call(c.t, m.logicalAff(lv), sim.CatClient, func(wt *sim.Thread) {
			wt.Consume(sys.cfg.Costs.ClientPerBlock)
			if _, found := v.SnapReadBlock(wt, snapID, li, fbn); !found {
				ok = false
			}
		})
	}
	m.client.BlocksRead += uint64(nblocks)
	return c.ack(m, start, sys.cfg.Costs.ClientOp, "snap-read", "", int64(nblocks)), ok
}

// VerifyRead returns the committed-or-cached content of a block without
// timing effects (nil for holes) — the test/validation path.
func (sys *System) VerifyRead(vol int, ino uint64, fbn FBN) []byte {
	m, lv, li := sys.resolve(vol, ino)
	v := m.a.Volume(lv)
	f := v.LookupFile(li)
	if f == nil {
		return nil
	}
	return v.ReadFileBlock(nil, f, fbn)
}

// CreateFileDirect makes a file without logging or timing (test setup) and
// returns its handle (member-tagged; bare inode on member 0).
func (sys *System) CreateFileDirect(vol int, maxBlocks uint64) uint64 {
	m, lv := sys.volMember(vol)
	rec := nvlog.Record{Kind: nvlog.OpCreate, Vol: uint32(lv), MaxBlocks: maxBlocks}
	m.apply(&rec)
	m.bindPlacement(lv, rec.Ino)
	return memberHandle(m.id, rec.Ino)
}

// SnapVerifyRead returns block fbn of inode ino from a snapshot's frozen
// image without timing effects — the test/oracle path. The second result is
// false if the snapshot or the inode does not exist in it; a nil slice with
// true means a hole in the frozen image.
func (sys *System) SnapVerifyRead(vol int, snapID, ino uint64, fbn FBN) ([]byte, bool) {
	m, lv, li := sys.resolve(vol, ino)
	return m.a.Volume(lv).SnapReadBlock(nil, snapID, li, fbn)
}

// SnapshotExists reports whether the volume has a materialized snapshot id.
func (sys *System) SnapshotExists(vol int, id uint64) bool {
	m, lv := sys.volMember(vol)
	return m.a.Volume(lv).SnapshotExists(id)
}

// SnapshotIDs returns the volume's materialized snapshot IDs, ascending.
func (sys *System) SnapshotIDs(vol int) []uint64 {
	m, lv := sys.volMember(vol)
	return m.a.Volume(lv).SnapshotIDs()
}

// FreeSpace is a per-volume free-space breakdown over the VVBN space:
// Active blocks are in the live file system, SnapOnly blocks are held only
// by snapshots (active bit clear, summary bit set), Free blocks are
// allocatable (clear in both maps).
type FreeSpace struct {
	Total    uint64
	Active   uint64
	SnapOnly uint64
	Free     uint64

	// CloneHeld counts base VVBNs a bound clone still shares with its parent
	// snapshot (their physical homes are parent-owned); SplitPending counts
	// the subset still live in the active map that a running split has yet to
	// block-copy. Both are zero for ordinary volumes.
	CloneHeld    uint64
	SplitPending uint64
}

// FreeSpaceBreakdown computes the volume's active / snap-held / free block
// counts from the live activemap and snapshot summary map, plus the
// clone-held and split-pending counts for clone volumes.
func (sys *System) FreeSpaceBreakdown(vol int) FreeSpace {
	m, lv := sys.volMember(vol)
	v := m.a.Volume(lv)
	total := v.VVBNBlocks()
	free, _ := v.Activemap.CountFreeNotIn(v.Summary, 0, total)
	active := v.Activemap.Used()
	fsb := FreeSpace{
		Total:    total,
		Active:   active,
		SnapOnly: total - active - free,
		Free:     free,
	}
	if st := v.CloneState(); st != nil {
		fsb.CloneHeld = st.Held()
		if st.Splitting {
			fsb.SplitPending = v.CloneLiveBase()
		}
	}
	return fsb
}
