package wafl

import (
	"fmt"

	"wafl/internal/aggregate"
	"wafl/internal/bcache"
	"wafl/internal/block"
	"wafl/internal/core"
	"wafl/internal/cp"
	"wafl/internal/faultinject"
	"wafl/internal/fs"
	"wafl/internal/nvlog"
	"wafl/internal/obs"
	"wafl/internal/sim"
	"wafl/internal/waffinity"
)

// Member is one constituent of a cluster: a complete per-aggregate storage
// stack — Waffinity hierarchy and worker pool, RAID aggregate with its
// FlexVols and superblock, White Alligator allocation infrastructure and
// cleaner pool, consistency-point engine, NVRAM log partition, and fault
// injector. A single-member System is exactly the pre-cluster single
// aggregate; a multi-member System stripes its namespace across members,
// each with its own CP cadence and its own crash domain.
//
// All of a member's service threads are spawned eagerly during
// construction, so they occupy a contiguous range of scheduler thread
// indices ([threadLo, threadHi)); crashing a member kills exactly that
// range while every other member's threads keep running.
type Member struct {
	sys    *System
	id     int
	w      *waffinity.Scheduler
	h      *waffinity.Hierarchy
	a      *aggregate.Aggregate
	in     *core.Infra
	pool   *core.Pool
	engine *cp.Engine
	log    *nvlog.Log
	tuner  *core.Tuner
	inj    *faultinject.Injector // nil unless Config.Faults enables an arm

	threadLo, threadHi int // scheduler thread-index range of service threads
	crashed            bool

	// reserved is the per-local-volume ingest reservation (blocks charged
	// by PlaceFile for files placed but not yet written). Host-side
	// placement state; never read by simulated threads. Reservations decay
	// as the placed writes land (reservation becomes consumption, which the
	// free-space counters then reflect) and the remainder is refunded when
	// the placed file is deleted — without the decay, a churning cluster
	// eventually reports zero reservation-net free space everywhere and
	// placement degenerates to member 0.
	reserved []int64
	// pendingPlace is, per local volume, the FIFO of placement charges not
	// yet bound to a created inode: PlaceFile pushes, the next create on
	// that volume pops and binds.
	pendingPlace [][]int64
	// placements maps a placed file (by local volume and inode) to the
	// blocks of its reservation not yet converted to consumption. Lookup
	// only — never iterated — so determinism is safe.
	placements map[placeKey]int64

	// bc is the member's residency set when Config.BCacheBlocks sizes one:
	// an LRU cache of user blocks that decides what a client read pays.
	// Nil otherwise, and the set is the trees' own residency bits
	// (fs.File.Resident), unbounded. Either way a block's content is its
	// buffer while it is dirty or in a CP, else its media image. Volatile:
	// rebuilt cold on recovery.
	bc *bcache.Cache

	// bulkHeld is the bulk admission latch (Config.Admission); bulkGate
	// sets and releases it.
	bulkHeld bool

	// The client and admission totals and the client latency histogram,
	// incremented in place by the client ops; stats() publishes them with
	// every layer's counters. Like those of every layer a remount rebuilds,
	// they restart with the incarnation, and base continues them — see
	// rebuilt.
	client    ClientStats
	admission AdmissionStats
	lat       *obs.Histogram
	base      Stats
}

// touch asks the member's residency set whether user block fbn of f, on
// local volume lv, is in memory, for client read t: a sized cache counts a
// hit or a miss and refreshes the block's recency.
func (m *Member) touch(t *sim.Thread, lv int, f *fs.File, fbn FBN) bool {
	if m.bc == nil {
		return f.Resident(fbn)
	}
	hit := m.bc.Touch(bcache.Key{Vol: lv, Ino: f.Ino(), FBN: fbn})
	if tr := t.Tracer(); tr != nil && hit {
		tr.Instant(obs.PidThreads, t.TrackID(), "client", "bcache hit", int64(t.Now()))
	}
	return hit
}

// load makes block fbn of f resident after client read t missed the set
// and paid its drive read, which started at miss.
func (m *Member) load(t *sim.Thread, lv int, f *fs.File, fbn FBN, miss Time) {
	if m.bc == nil {
		f.Hold(fbn)
		return
	}
	m.bc.Insert(bcache.Key{Vol: lv, Ino: f.Ino(), FBN: fbn})
	m.client.BCacheMiss.Observe(int64(t.Now() - miss))
	if tr := t.Tracer(); tr != nil {
		tr.Span(obs.PidThreads, t.TrackID(), "client", "bcache miss", int64(miss), int64(t.Now()))
	}
}

// wrote makes a freshly written block resident. The write's buffer set the
// tree's bit; a sized cache inserts it, as the hottest block there is.
func (m *Member) wrote(lv int, li uint64, fbn FBN) {
	if m.bc != nil {
		m.bc.Insert(bcache.Key{Vol: lv, Ino: li, FBN: fbn})
	}
}

// placeKey identifies a placed file's reservation: member-local volume and
// inode.
type placeKey struct {
	vol int
	ino uint64
}

// bindPlacement binds the oldest unbound placement charge on local volume
// lv to the newly created inode ino, so later writes to it can decay the
// reservation and a delete can refund the remainder. No-op when no
// placement is pending (plain creates).
//
// Concurrent placed creates on one volume may interleave between PlaceFile
// and the create, so a charge can bind to a different same-volume file than
// the one it was sized for; the invariant that matters — reserved[lv] equals
// pending plus bound remainders — holds regardless, and the FIFO keeps the
// binding deterministic.
func (m *Member) bindPlacement(lv int, ino uint64) {
	q := m.pendingPlace[lv]
	if len(q) == 0 {
		return
	}
	m.placements[placeKey{lv, ino}] = q[0]
	m.pendingPlace[lv] = q[1:]
}

// consumePlacement converts up to blocks of the file's outstanding
// placement reservation into consumption: the blocks just written are now
// counted by the free-space index itself, so the reservation standing in
// for them is released.
func (m *Member) consumePlacement(lv int, ino uint64, blocks int64) {
	k := placeKey{lv, ino}
	rem, ok := m.placements[k]
	if !ok {
		return
	}
	if blocks >= rem {
		m.reserved[lv] -= rem
		delete(m.placements, k)
		return
	}
	m.reserved[lv] -= blocks
	m.placements[k] = rem - blocks
}

// refundPlacement returns the unwritten remainder of a deleted placed
// file's reservation.
func (m *Member) refundPlacement(lv int, ino uint64) {
	k := placeKey{lv, ino}
	if rem, ok := m.placements[k]; ok {
		m.reserved[lv] -= rem
		delete(m.placements, k)
	}
}

// spawnPrefix returns the thread-name prefix for member id: empty for
// member 0 (so a single-member system's thread and trace-track names are
// byte-identical to the pre-cluster code), "m<id>." otherwise.
func spawnPrefix(id int) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("m%d.", id)
}

// buildMember constructs and formats one member on the cluster's shared
// scheduler. The construction sequence (waffinity scheduler and workers,
// hierarchy, aggregate, volumes, infra, cleaner pool, NVRAM log, CP
// engine, tuner) is the pre-cluster NewSystem sequence verbatim; for a
// single-member system the resulting event stream is bit-identical.
func buildMember(sys *System, id int) (*Member, error) {
	cfg := sys.cfg
	// Clone slots are pre-provisioned member-local volumes after the client
	// volumes: indices [Volumes, Volumes+CloneSlots). With CloneSlots == 0
	// the layout (and every event) is identical to the pre-clone code.
	localVols := cfg.Volumes + cfg.CloneSlots
	m := &Member{sys: sys, id: id,
		reserved:     make([]int64, localVols),
		pendingPlace: make([][]int64, localVols),
		placements:   make(map[placeKey]int64)}
	// The scheduler comes up before the aggregate is formatted. The aggregate
	// spawns no thread and posts no event until its first I/O, so formatting
	// it first would leave every digest as it is — but not the heap layout:
	// that order moved overload_burst's host metrics (CHANGES.md, PR 19).
	m.startScheduler()
	a, err := aggregate.New(sys.s, aggregate.Config{
		Geometry: aggregate.Geometry{
			NumGroups:  cfg.RAIDGroups,
			DataDrives: cfg.DataDrives,
			Depth:      block.DBN(cfg.DriveBlocks),
			AAStripes:  block.DBN(cfg.AAStripes),
		},
		Profile: cfg.Drives.profile(),
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < localVols; i++ {
		a.AddVolume(cfg.VolumeBlocks)
	}
	m.startAllocator(a)
	return m, nil
}

// startScheduler and startAllocator build the member's volatile stack, in
// the one order the event stream depends on; format and remount both come
// through them, and every service thread is spawned inside them, which is
// what makes [threadLo, threadHi) the member's crash domain. startScheduler
// is the half that needs no aggregate: the client totals, the cold buffer
// cache and the Waffinity scheduler with its worker threads and hierarchy.
func (m *Member) startScheduler() {
	cfg, s := m.sys.cfg, m.sys.s
	s.SetSpawnPrefix(spawnPrefix(m.id))
	defer s.SetSpawnPrefix("")
	m.threadLo = s.ThreadMark()
	h := obs.NewHistogram
	m.client = ClientStats{WriteLat: h("client.write"), ReadLat: h("client.read"), RestoreLat: h("client.restore"),
		CloneLat: h("client.clone"), LogStall: h("client.stall"), BCacheMiss: h("client.bcache.miss")}
	m.admission, m.lat = AdmissionStats{Delay: h("client.admit")}, h("client.lat")
	if cfg.BCacheBlocks > 0 {
		m.bc = bcache.New(cfg.BCacheBlocks)
	}
	m.w = waffinity.New(s, cfg.Cores, cfg.Costs.MsgDispatch)
	m.h = waffinity.NewHierarchy(m.w, waffinity.HierarchyConfig{
		VolumesPerAgg: cfg.Volumes + cfg.CloneSlots,
		StripesPerVol: cfg.StripesPerVolume,
		RangesPerVBN:  cfg.RangesPerVBN,
		FirstAggr:     m.id,
	})
}

// startAllocator is the half on top of aggregate a: the allocation
// infrastructure, cleaner pool, NVRAM log, CP engine and tuner.
func (m *Member) startAllocator(a *aggregate.Aggregate) {
	cfg, s := m.sys.cfg, m.sys.s
	s.SetSpawnPrefix(spawnPrefix(m.id))
	defer s.SetSpawnPrefix("")
	m.a = a
	m.in = core.NewInfra(m.w, m.h, a, cfg.Allocator, cfg.Costs)
	m.pool = core.NewPool(m.in, cfg.Allocator, cfg.Costs)
	m.log = nvlog.New(cfg.NVRAMHalfBytes)
	m.engine = cp.New(m.w, m.h, a, m.in, m.pool, m.log, cfg.Allocator, cfg.Costs)
	m.engine.SetRestoreHook(m.onRestore)
	if cfg.Allocator.Dynamic {
		m.tuner = core.StartTuner(m.pool)
	}
	m.threadHi = s.ThreadMark()
}

// rebuilt returns the cumulative counters of the layers a remount builds anew
// (the client totals, the volatile stack, and the mounted aggregate's repair
// path and image pool): this incarnation's, continued from base — the same
// value the incarnation a crash destroyed last reported — so no counter runs
// backwards across RecoverMember.
func (m *Member) rebuilt() Stats {
	live := Stats{Client: m.client, Admission: m.admission, Lat: m.lat, Infra: m.in.Stats(), Pool: m.pool.Stats(),
		CP: m.engine.Stats(), Waffinity: m.w.Stats(), Repairs: m.a.Repairs(), Images: m.a.ImageStats()}
	if m.bc != nil {
		live.BCache = m.bc.Stats()
	}
	var st Stats
	foldInto(opAdd, &st, live) // copies the live histograms
	foldInto(opCarry, &st, m.base)
	return st
}

// stats returns the member's cumulative Stats: what each layer counts today,
// read where the layer keeps it. Drives, RAID groups and the fault injector
// are the same objects across a remount and need no carrying.
func (m *Member) stats() Stats {
	st := m.rebuilt()
	for gi := 0; gi < m.a.Groups(); gi++ {
		g := m.a.Group(gi)
		foldInto(opAdd, &st.RAID, g.Stats())
		foldInto(opAdd, &st.Drives, g.ParityDrive().Stats())
		for di := 0; di < g.DataDrives(); di++ {
			foldInto(opAdd, &st.Drives, g.Drive(di).Stats())
		}
	}
	if m.inj != nil {
		st.Faults = m.inj.Stats()
	}
	st.CPCount = m.a.CPCount()
	st.Cleaners, st.AggrFree = m.pool.Active(), m.in.AggrFree()
	for v := 0; v < m.sys.cfg.Volumes; v++ {
		st.VolFree += m.in.VolFree(v)
	}
	for _, r := range m.reserved {
		st.Reserved += r
	}
	return st
}

// onRestore is the CP engine's post-SnapRestore-apply callback: the restored
// image supersedes the volume's volatile present, so evict its buffer-cache
// residency and refund every ingest reservation charged against it (bound or
// still pending) — the files those charges stood in for were discarded or
// reverted with the rest of the present.
func (m *Member) onRestore(lv int) {
	if m.bc != nil {
		m.bc.InvalidateVol(lv)
	}
	// Deleting map entries while iterating is fine in Go, and the resulting
	// reserved[lv] is a sum — order-independent, so determinism holds even
	// though the map iteration order is not.
	for k, rem := range m.placements {
		if k.vol == lv {
			m.reserved[lv] -= rem
			delete(m.placements, k)
		}
	}
	for _, q := range m.pendingPlace[lv] {
		m.reserved[lv] -= q
	}
	m.pendingPlace[lv] = nil
}

// remountMember rebuilds a crashed member from its persistent state: it
// mounts the last committed consistency point from the member's drives, drops
// every image that CP's tree does not reach (the crashed CP's landed writes,
// the blocks freed since the last forget) and replays the member's NVRAM log
// partition, leaving the replayed
// operations dirty for the next CP. The rebuilt member runs on the same
// scheduler and drives; cumulative statistics carry over — the rebuilt
// layers' as base — so measurement windows spanning the crash stay
// meaningful.
func (sys *System) remountMember(om *Member) (*Member, error) {
	a, err := aggregate.MountFrom(om.a)
	if err != nil {
		return nil, fmt.Errorf("wafl: recovery mount of member %d failed: %w", om.id, err)
	}
	a.ForgetUnreachable()
	m := &Member{
		sys: sys, id: om.id,
		base: om.rebuilt(),
		// Deep-copy the placement state: sharing om.reserved's backing array
		// (the old `reserved: om.reserved`) let post-recovery reservation
		// mutations be observed through stale references to the dead member
		// held by in-flight measurement/debug paths.
		reserved:     append([]int64(nil), om.reserved...),
		pendingPlace: make([][]int64, len(om.pendingPlace)),
		placements:   make(map[placeKey]int64, len(om.placements)),
		// Fault injection outlives the crash: the drives are the same objects
		// (media persists), so the plan wired into them keeps applying.
		inj: om.inj,
	}
	for v, q := range om.pendingPlace {
		m.pendingPlace[v] = append([]int64(nil), q...)
	}
	for k, rem := range om.placements {
		m.placements[k] = rem
	}
	// Everything volatile is rebuilt from scratch — including the Waffinity
	// scheduler and its worker threads (the crash destroyed the old ones) and
	// the buffer cache, which restarts cold.
	m.startScheduler()
	m.startAllocator(a)
	// Replay the surviving NVRAM records, then re-log them into the new
	// log with their original sequence numbers. Replayed operations were
	// acknowledged to clients, so until a CP commits them they must stay
	// NVRAM-protected (§II-C): without re-logging, a second crash before
	// the next CP would silently lose them. The restored records may
	// exceed one half's capacity (they occupied up to two halves before
	// the crash); the over-full active half stalls new client ops until
	// the recovery CP below drains it.
	records := om.log.Replay()
	m.replay(records)
	m.log.Restore(records)
	if len(records) > 0 {
		// Schedule a recovery CP so the replayed state reaches disk (and
		// frees the log) promptly once the scheduler runs again.
		m.engine.RequestCP()
	}
	return m, nil
}

// crash destroys the member's volatile state: its service threads, its
// in-flight drive I/O, its buffer caches and allocator state. The member
// is unusable until remounted.
func (m *Member) crash() {
	m.crashed = true
	if m.tuner != nil {
		m.tuner.Stop()
	}
	m.sys.s.KillRange(m.threadLo, m.threadHi)
	m.a.CrashAll()
}

// replay reapplies logged operations in sequence order against the mounted
// member file system. Record coordinates (Vol, Ino) are member-local.
func (m *Member) replay(records []nvlog.Record) {
	for i := range records {
		m.apply(&records[i])
	}
}

// apply performs the operation rec describes on the member's file system. It
// is the one implementation of every namespace operation: the timed client
// op (ClientCtx.logged), its untimed *Direct entry and NVRAM replay all come
// through here, so what is replayed is what was performed. Identifiers come
// from the record; where the live path has one to choose (a new inode, a new
// snapshot ID, a clone slot) the record arrives with it zero and apply fills
// it in, so the record the caller then logs replays exactly. Idempotent: a
// record applied on top of a CP that already holds its effect (a crash
// between the commit and the freeing of the log half) or twice (a crash
// during recovery) changes nothing. Reports whether the operation took
// effect; a refused one (no such file, snapshot or clone, no free slot) is
// not logged.
func (m *Member) apply(rec *nvlog.Record) bool {
	v := m.a.Volume(int(rec.Vol))
	switch rec.Kind {
	case nvlog.OpWrite:
		f := v.LookupFile(rec.Ino)
		if f == nil {
			// Its delete follows in this log: the CP that reaped the file
			// committed, and the crash came before the log half was freed.
			return false
		}
		// Install the block's existing location (if any) so the replayed
		// overwrite frees it at the next CP.
		v.EnsureL0Resident(f, rec.FBN)
		f.WriteBlock(rec.FBN, rec.Data)
		v.MarkDirty(f)
	case nvlog.OpCreate:
		rec.Ino = v.CreateFileAt(rec.Ino, rec.MaxBlocks).Ino()
	case nvlog.OpDelete:
		return v.DeleteFile(rec.Ino)
	case nvlog.OpSnapCreate:
		// Ino carries the snapshot ID here and below. A create a committed CP
		// already materialized is a no-op; otherwise it is (re-)queued and
		// the next CP materializes it.
		rec.Ino = v.RequestSnapshot(rec.Ino)
	case nvlog.OpSnapDelete:
		return v.DeleteSnapshot(rec.Ino)
	case nvlog.OpSnapRestore:
		// The volume is gated from here until the applying CP commits, so no
		// later record in the log touches it: a replayed DiscardVolatile
		// cannot erase replayed-and-acked state.
		return v.RequestRestore(rec.Ino)
	case nvlog.OpCloneCreate:
		// FBN carries the parent's local volume and Vol the clone slot: 0,
		// never a slot (client volumes come first), asks for the lowest free
		// one. Only a fresh queueing takes the parent delete guard — a bind
		// already pending holds it, and the mount rebuilt a materialized one's.
		pv := m.a.Volume(int(rec.FBN))
		if rec.Vol == 0 {
			slot := m.freeCloneSlot()
			if slot < 0 || !pv.SnapshotExists(rec.Ino) {
				return false
			}
			rec.Vol = uint32(slot)
			v = m.a.Volume(slot)
		}
		if v.RequestCloneBind(int(rec.FBN), rec.Ino) {
			pv.AddCloneRef(rec.Ino)
		}
	case nvlog.OpCloneSplit:
		return v.StartSplit() // false once a split has completed
	}
	return true
}

// volAffs is the single member-resolution point for the Waffinity
// hierarchy: every call site that needs a volume's affinity instances goes
// through here (and the helpers below) rather than indexing h.Volumes
// directly — arch_test.go's aff rule enforces it.
func (m *Member) volAffs(localVol int) *waffinity.VolAffinities {
	return m.h.Volumes[localVol]
}

// Values every configuration uses unchanged.
const (
	// stripeWidthBlocks is the contiguous FBN range mapped to one stripe
	// affinity.
	stripeWidthBlocks = 2048
	// cpTriggerFullness starts a CP when the active NVRAM half passes this
	// fraction.
	cpTriggerFullness = 0.5

	// The bulk admission watermarks (Config.Admission), placed around the CP
	// trigger, as active-half fullness: the gate closes at admitDelayAt and
	// opens below admitResumeAt (bulkGate). A held write sleeps
	// admitDelayStep rounds, and is shed at admitShedAt or once it has
	// waited admitMaxDelay in all (ClientCtx.admitBulk).
	admitDelayAt   = 0.70
	admitShedAt    = 0.92
	admitResumeAt  = 0.55
	admitDelayStep = 200 * Microsecond
	admitMaxDelay  = 20 * Millisecond
)

// stripeAff maps (local volume, fbn) to the stripe affinity owning that
// file region.
func (m *Member) stripeAff(localVol int, fbn FBN) *waffinity.Affinity {
	stripes := m.volAffs(localVol).Stripes
	idx := int(uint64(fbn)/stripeWidthBlocks) % len(stripes)
	return stripes[idx]
}

// logicalAff returns the volume's Logical affinity (client-facing file
// operations outside any single stripe: creates, deletes, snapshots).
func (m *Member) logicalAff(localVol int) *waffinity.Affinity {
	return m.volAffs(localVol).Logical
}

// call executes fn inside aff on the member's Waffinity scheduler,
// blocking t until it completes.
func (m *Member) call(t *sim.Thread, aff *waffinity.Affinity, cat sim.Category, fn func(*sim.Thread)) {
	m.w.Call(t, aff, cat, fn)
}

// maybeTriggerCP starts a CP when the member's active NVRAM half passes
// cpTriggerFullness.
func (m *Member) maybeTriggerCP() {
	if m.log.Fullness() >= cpTriggerFullness && !m.log.HasFrozen() {
		m.engine.RequestCP()
	}
}

// bulkGate updates the bulkHeld latch against the active NVRAM half's
// fullness and reports it, with that fullness. The latch holds from
// admitDelayAt until the half is below admitResumeAt and no frozen half is
// draining: fullness drops to ~0 the instant the halves switch, long before
// the CP has freed anything, and that cliff must not flap the gate open.
func (m *Member) bulkGate() (held bool, full float64) {
	full = m.log.Fullness()
	if m.bulkHeld {
		if full < admitResumeAt && !m.log.HasFrozen() {
			m.bulkHeld = false
		}
	} else if full >= admitDelayAt {
		m.bulkHeld = true
	}
	return m.bulkHeld, full
}

// Handle encoding: a file handle returned by Create/CreateFileDirect
// carries its member id in the top bits, making routing stateless after
// create — any node can derive the owning constituent from the handle
// alone, without a namespace lookup. Member 0 handles are the bare inode
// number, so single-member systems see exactly the pre-cluster handles.
const memberShift = 48

func memberHandle(id int, ino uint64) uint64 {
	if id == 0 {
		return ino
	}
	return uint64(id)<<memberShift | ino
}

func handleMember(ino uint64) int { return int(ino >> memberShift) }
func handleIno(ino uint64) uint64 { return ino & (1<<memberShift - 1) }

// m0 returns member 0 — the whole system when Members == 1. In-package
// tests reach single-member internals (aggregate, NVRAM log) through it.
func (sys *System) m0() *Member { return sys.members[0] }

// volMember resolves a global volume index to (member, member-local
// volume). Global volume v < Members*Volumes lives on member v /
// cfg.Volumes; clone volumes are addressed above that base — global clone
// slot s of member m is Members*Volumes + m*CloneSlots + s, mapping to
// member-local volume Volumes + s. A clone is always placed on its parent's
// member (the base blocks are physically there), so the routing stays
// stateless. An index outside both ranges is a caller bug and panics.
func (sys *System) volMember(vol int) (*Member, int) {
	base := sys.cfg.Volumes * len(sys.members)
	if n := base + sys.cfg.CloneSlots*len(sys.members); vol < 0 || vol >= n {
		panic(fmt.Sprintf("wafl: volume %d out of range [0, %d)", vol, n))
	}
	if vol >= base {
		cs := vol - base
		return sys.members[cs/sys.cfg.CloneSlots], sys.cfg.Volumes + cs%sys.cfg.CloneSlots
	}
	return sys.members[vol/sys.cfg.Volumes], vol % sys.cfg.Volumes
}

// globalVol is volMember's inverse: the global index of member mid's local
// volume lv.
func (sys *System) globalVol(mid, lv int) int {
	if lv < sys.cfg.Volumes {
		return mid*sys.cfg.Volumes + lv
	}
	return sys.cfg.Volumes*len(sys.members) + mid*sys.cfg.CloneSlots + (lv - sys.cfg.Volumes)
}

// cloneSlots returns the member-local volume range [lo, hi) of the clone
// slots (empty when Config.CloneSlots is 0).
func (m *Member) cloneSlots() (lo, hi int) {
	return m.sys.cfg.Volumes, m.sys.cfg.Volumes + m.sys.cfg.CloneSlots
}

// freeCloneSlot returns the lowest free clone slot (member-local volume
// index), or -1 when every slot is taken.
func (m *Member) freeCloneSlot() int {
	for s, hi := m.cloneSlots(); s < hi; s++ {
		if m.a.Volume(s).CloneSlotFree() {
			return s
		}
	}
	return -1
}

// resolve routes an operation addressed by (global volume, file handle) to
// its member: the handle's embedded constituent id wins when present
// (stateless routing); bare handles route by volume. Returns the member,
// the member-local volume index, and the member-local inode number.
func (sys *System) resolve(vol int, ino uint64) (*Member, int, uint64) {
	if mid := handleMember(ino); mid != 0 {
		_, lv := sys.volMember(vol)
		return sys.members[mid], lv, handleIno(ino)
	}
	m, lv := sys.volMember(vol)
	return m, lv, ino
}
