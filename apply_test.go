package wafl

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wafl/internal/aggregate"
	"wafl/internal/block"
	"wafl/internal/nvlog"
)

// The replay contract (§II-C), pinned at the unit level: every namespace
// operation is Member.apply of its log record, so (a) applying a history
// again changes nothing and (b) what the ClientCtx methods did is what a
// crash replays. Both tests drive one seeded generator through nsOps.

// nsOps is the logged-operation surface of ClientCtx; applyOps implements it
// straight over Member.apply.
type nsOps interface {
	Create(vol int, maxBlocks uint64) uint64
	Delete(vol int, ino uint64) bool
	Write(vol int, ino uint64, fbn FBN, nblocks int) Duration
	SnapCreate(vol int) uint64
	SnapDelete(vol int, id uint64) bool
	SnapRestore(vol int, id uint64) bool
	CloneCreate(parentVol int, snapID uint64) (int, bool)
	CloneSplit(vol int) bool
}

// applyFn is Member.apply or a deliberately broken stand-in for it.
type applyFn func(*Member, *nvlog.Record) bool

// applyOps performs operations through apply alone — no client, no NVRAM, no
// simulated time — and keeps the record of each one that took effect, with
// the identifiers apply assigned: the log a crash would replay.
type applyOps struct {
	sys   *System
	apply applyFn
	recs  []nvlog.Record
}

func (a *applyOps) do(vol int, rec nvlog.Record) (nvlog.Record, bool) {
	m, lv := a.sys.volMember(vol)
	if rec.Kind == nvlog.OpCloneCreate {
		rec.FBN = FBN(lv) // Vol stays 0: apply picks the slot
	} else {
		rec.Vol = uint32(lv)
	}
	ok := a.apply(m, &rec)
	if ok {
		a.recs = append(a.recs, rec)
	}
	return rec, ok
}

func (a *applyOps) Create(vol int, maxBlocks uint64) uint64 {
	rec, _ := a.do(vol, nvlog.Record{Kind: nvlog.OpCreate, MaxBlocks: maxBlocks})
	return rec.Ino
}

func (a *applyOps) Delete(vol int, ino uint64) bool {
	_, ok := a.do(vol, nvlog.Record{Kind: nvlog.OpDelete, Ino: ino})
	return ok
}

func (a *applyOps) Write(vol int, ino uint64, fbn FBN, nblocks int) Duration {
	for b := FBN(0); b < FBN(nblocks); b++ {
		a.do(vol, nvlog.Record{Kind: nvlog.OpWrite, Ino: ino, FBN: fbn + b,
			Data: a.sys.payload(ino, fbn+b, 0), LogicalBytes: block.Size})
	}
	return 0
}

func (a *applyOps) SnapCreate(vol int) uint64 {
	rec, _ := a.do(vol, nvlog.Record{Kind: nvlog.OpSnapCreate})
	return rec.Ino
}

func (a *applyOps) SnapDelete(vol int, id uint64) bool {
	_, ok := a.do(vol, nvlog.Record{Kind: nvlog.OpSnapDelete, Ino: id})
	return ok
}

func (a *applyOps) SnapRestore(vol int, id uint64) bool {
	_, ok := a.do(vol, nvlog.Record{Kind: nvlog.OpSnapRestore, Ino: id})
	return ok
}

func (a *applyOps) CloneCreate(parentVol int, snapID uint64) (int, bool) {
	rec, ok := a.do(parentVol, nvlog.Record{Kind: nvlog.OpCloneCreate, Ino: snapID})
	if !ok {
		return -1, false
	}
	return a.sys.globalVol(0, int(rec.Vol)), true
}

func (a *applyOps) CloneSplit(vol int) bool {
	_, ok := a.do(vol, nvlog.Record{Kind: nvlog.OpCloneSplit})
	return ok
}

// volImage is the model of one volume (or one snapshot of it): the blocks
// written, per file.
type volImage map[uint64]map[FBN]bool

func (im volImage) clone() volImage {
	out := make(volImage, len(im))
	for ino, fbns := range im {
		out[ino] = maps.Clone(fbns)
	}
	return out
}

// nsModel is what a correct system must hold after a history: per volume the
// live files and their written blocks, the snapshot images, every handle
// ever returned, and which volumes a requested SnapRestore has closed.
type nsModel struct {
	live  map[int]volImage
	snaps map[int]map[uint64]volImage
	seen  map[int]map[uint64]bool
	gated map[int]bool
	kinds map[nvlog.OpKind]int // operations that took effect, by kind
}

const (
	historyFileBlocks = 64 // FBN span the generator writes within
	historySetupFiles = 3
)

// newHistorySystem builds a two-volume, two-clone-slot system holding what a
// history needs to already be on media: a few written files per volume and,
// on volume 0, a materialized snapshot clones can bind to. It returns the
// matching model and that snapshot's ID.
func newHistorySystem(t *testing.T, nvramHalf uint64) (*System, *nsModel, uint64) {
	t.Helper()
	cfg := cloneConfig()
	cfg.NVRAMHalfBytes = nvramHalf
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mo := &nsModel{
		live:  map[int]volImage{0: {}, 1: {}},
		snaps: map[int]map[uint64]volImage{0: {}, 1: {}},
		seen:  map[int]map[uint64]bool{0: {}, 1: {}},
		gated: map[int]bool{},
		kinds: map[nvlog.OpKind]int{},
	}
	for vol := 0; vol < 2; vol++ {
		for i := 0; i < historySetupFiles; i++ {
			ino := sys.CreateFileDirect(vol, historyFileBlocks)
			sys.Prewrite(vol, ino, 16, false)
			mo.live[vol][ino] = map[FBN]bool{}
			mo.seen[vol][ino] = true
			for fbn := FBN(0); fbn < 16; fbn++ {
				mo.live[vol][ino][fbn] = true
			}
		}
	}
	base := sys.SnapCreateDirect(0)
	mo.snaps[0][base] = mo.live[0].clone()
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	return sys, mo, base
}

// pick returns a pseudo-random key of m (sorted first: map order must not
// leak into the history), or false when m is empty.
func pick[V any](rng *rand.Rand, m map[uint64]V) (uint64, bool) {
	if len(m) == 0 {
		return 0, false
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys[rng.Intn(len(keys))], true
}

// historyShape sizes a generated history.
type historyShape struct {
	steps       int
	restoreFrom int // first step that may issue a SnapRestore
	quiet       int // trailing steps that avoid the operations which request a CP
}

// runHistory issues seeded-random operations of every logged kind through
// ops, updating mo as each takes effect. It obeys what the live system
// enforces on any log it writes: nothing follows a SnapRestore on its volume
// until a CP has applied it (the gate) — so where no CP runs, restores come
// late or the history is short — and a clone is only written once bound. A
// quiet tail leaves a live run with records still in NVRAM.
func runHistory(sys *System, ops nsOps, mo *nsModel, seed int64, shape historyShape) {
	rng := rand.New(rand.NewSource(seed))
	took := func(k nvlog.OpKind) { mo.kinds[k]++ }
	for i := 0; i < shape.steps; i++ {
		var vols []int
		for v := 0; v < sys.cfg.Volumes+sys.cfg.CloneSlots; v++ {
			if mo.live[v] != nil && !mo.gated[v] {
				vols = append(vols, v)
			}
		}
		if len(vols) == 0 {
			return
		}
		vol := vols[rng.Intn(len(vols))]
		bound := vol < sys.cfg.Volumes || sys.CloneBound(vol)
		op := rng.Intn(40)
		if (i >= shape.steps-shape.quiet && op >= 28 && op < 38) || (i < shape.restoreFrom && op >= 31 && op < 33) {
			op = 0
		}
		switch {
		case op < 18: // write
			ino, ok := pick(rng, mo.live[vol])
			if !ok || !bound {
				continue
			}
			fbn, n := FBN(rng.Intn(historyFileBlocks-2)), 1+rng.Intn(2)
			ops.Write(vol, ino, fbn, n)
			for b := FBN(0); b < FBN(n); b++ {
				mo.live[vol][ino][fbn+b] = true
			}
			took(nvlog.OpWrite)
		case op < 24: // create
			if !bound {
				continue
			}
			ino := ops.Create(vol, historyFileBlocks)
			mo.live[vol][ino] = map[FBN]bool{}
			mo.seen[vol][ino] = true
			took(nvlog.OpCreate)
		case op < 28: // delete
			ino, ok := pick(rng, mo.live[vol])
			if ok && bound && ops.Delete(vol, ino) {
				delete(mo.live[vol], ino)
				took(nvlog.OpDelete)
			}
		case op < 31: // snapshot create
			if bound {
				mo.snaps[vol][ops.SnapCreate(vol)] = mo.live[vol].clone()
				took(nvlog.OpSnapCreate)
			}
		case op < 33: // restore
			// Not of a clone mid-split: that pairing double-frees a VVBN a few
			// CPs later (ROADMAP item 3), here and at the parent commit alike.
			m, lv := sys.volMember(vol)
			v := m.a.Volume(lv)
			if id, ok := pick(rng, mo.snaps[vol]); ok && !v.CloneSplitting() && ops.SnapRestore(vol, id) {
				mo.live[vol] = mo.snaps[vol][id].clone()
				mo.gated[vol] = v.RestorePending()
				took(nvlog.OpSnapRestore)
			}
		case op < 35: // clone create, from a client volume
			if vol >= sys.cfg.Volumes {
				continue
			}
			if id, ok := pick(rng, mo.snaps[vol]); ok {
				if cv, ok := ops.CloneCreate(vol, id); ok {
					mo.live[cv] = mo.snaps[vol][id].clone()
					mo.snaps[cv] = map[uint64]volImage{}
					mo.seen[cv] = map[uint64]bool{}
					for ino := range mo.live[cv] {
						mo.seen[cv][ino] = true
					}
					took(nvlog.OpCloneCreate)
				}
			}
		case op < 38: // clone split
			if vol >= sys.cfg.Volumes && ops.CloneSplit(vol) {
				took(nvlog.OpCloneSplit)
			}
		default: // snapshot delete (refused while a clone or restore holds it)
			if id, ok := pick(rng, mo.snaps[vol]); ok && ops.SnapDelete(vol, id) {
				delete(mo.snaps[vol], id)
				took(nvlog.OpSnapDelete)
			}
		}
	}
}

// committedState renders what a flushed system holds: the superblock (where
// every tree root landed, and after how many CPs) and, since that does not
// cover content, per volume the inode and snapshot counters, the snapshot
// set, the clone binding, the space breakdown and a checksum of every block
// of every file.
func committedState(sys *System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "superblock %x", block.Checksum(sys.SuperblockBytes()))
	for vol := 0; vol < sys.cfg.Volumes+sys.cfg.CloneSlots; vol++ {
		v := sys.m0().a.Volume(vol)
		pv, ps, _ := sys.CloneParent(vol)
		fmt.Fprintf(&b, "\nvol %d: nextIno %d snaps %v clone-of %d/%d space %+v files",
			vol, v.NextIno(), sys.SnapshotIDs(vol), pv, ps, sys.FreeSpaceBreakdown(vol))
		for ino := uint64(aggregate.FirstUserIno); ino < v.NextIno(); ino++ {
			if !sys.FileExists(vol, ino) {
				continue
			}
			var sum uint64
			for fbn := FBN(0); fbn < historyFileBlocks; fbn++ {
				sum = sum*31 + block.Checksum(sys.VerifyRead(vol, ino, fbn))
			}
			fmt.Fprintf(&b, " %d:%x", ino, sum)
		}
	}
	return b.String()
}

// checkReplayIdempotent builds one history through apply (identifiers
// assigned by it), then replays the records it produced into two fresh
// systems — once, and twice over, which is what a crash during recovery does
// via log.Restore — and requires all three to flush to the same committed
// state and a clean fsck.
func checkReplayIdempotent(t *testing.T, seed int64, apply applyFn) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	live, mo, _ := newHistorySystem(t, 64<<20)
	defer live.Shutdown()
	hist := &applyOps{sys: live, apply: apply}
	runHistory(live, hist, mo, seed, historyShape{steps: 400, restoreFrom: 300})
	for k := nvlog.OpWrite; k <= nvlog.OpCloneSplit; k++ {
		if mo.kinds[k] == 0 {
			t.Fatalf("seed %d: history has no operation of kind %d; pick another seed", seed, k)
		}
	}
	finish := func(sys *System, label string) (string, error) {
		if err := sys.Flush(); err != nil {
			return "", fmt.Errorf("%s: %v", label, err)
		}
		if rep := sys.Fsck(); !rep.OK() {
			return "", fmt.Errorf("%s: fsck: %s", label, rep)
		}
		return committedState(sys), nil
	}
	want, err := finish(live, "live history")
	if err != nil {
		return err
	}
	for passes := 1; passes <= 2; passes++ {
		sys, _, _ := newHistorySystem(t, 64<<20)
		defer sys.Shutdown()
		for p := 0; p < passes; p++ {
			for _, rec := range hist.recs {
				apply(sys.m0(), &rec)
			}
		}
		label := fmt.Sprintf("history replayed x%d", passes)
		got, err := finish(sys, label)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s: committed state differs from the live history's\n got: %s\nwant: %s", label, got, want)
		}
	}
	return nil
}

// TestApplyIdempotent is contract (a), and shows the check has teeth: an
// apply that ignores a pre-set inode number — assigning a fresh one, as the
// live create does — must fail it.
func TestApplyIdempotent(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		if err := checkReplayIdempotent(t, seed, (*Member).apply); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	broken := func(m *Member, rec *nvlog.Record) bool {
		if rec.Kind == nvlog.OpCreate {
			rec.Ino = 0
		}
		return m.apply(rec)
	}
	if err := checkReplayIdempotent(t, 3, broken); err == nil {
		t.Fatal("an apply that ignores a pre-set rec.Ino passed the idempotence check")
	}
}

// TestLiveEqualsReplay is contract (b): the same kind of history through the
// ClientCtx methods, with a log too large to trigger a CP on fullness, then
// crash, recover, quiesce. Every file handle, snapshot ID and clone volume
// index the live path returned must resolve, and every acknowledged block
// must read back — from the live volumes and from the snapshot images.
func TestLiveEqualsReplay(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sys, mo, _ := newHistorySystem(t, 64<<20)
		done := false
		sys.ClientThread("history", func(c *ClientCtx) {
			runHistory(sys, c, mo, seed, historyShape{steps: 300, quiet: 60})
			done = true
		})
		for i := 0; i < 100 && !done; i++ {
			sys.Run(100 * Millisecond)
		}
		if !done {
			t.Fatalf("seed %d: history did not finish", seed)
		}
		if n := len(sys.m0().log.Replay()); n < 20 {
			t.Fatalf("seed %d: only %d records in NVRAM at the crash; nothing to replay", seed, n)
		}
		sys.Crash()
		rec, err := sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if err := mo.verify(rec); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep := rec.Fsck(); !rep.OK() {
			t.Fatalf("seed %d: fsck after replay: %s", seed, rep)
		}
		rec.Shutdown()
	}
}

// verify checks sys against the model.
func (mo *nsModel) verify(sys *System) error {
	var errs []string
	for vol, live := range mo.live {
		if vol >= sys.cfg.Volumes && !sys.CloneBound(vol) && !sys.CloneSplitDone(vol) {
			errs = append(errs, fmt.Sprintf("clone volume %d is neither bound nor split", vol))
		}
		for ino := range mo.seen[vol] {
			if _, want := live[ino]; sys.FileExists(vol, ino) != want {
				errs = append(errs, fmt.Sprintf("vol %d ino %d: exists=%v, want %v", vol, ino, !want, want))
			}
		}
		for ino, fbns := range live {
			for fbn := range fbns {
				if err := sys.VerifyAgainst(vol, ino, fbn); err != nil {
					errs = append(errs, err.Error())
				}
			}
		}
		for id, image := range mo.snaps[vol] {
			if !sys.SnapshotExists(vol, id) {
				errs = append(errs, fmt.Sprintf("vol %d: snapshot %d lost", vol, id))
				continue
			}
			for ino, fbns := range image {
				for fbn := range fbns {
					if err := sys.SnapVerifyAgainst(vol, id, ino, fbn, true); err != nil {
						errs = append(errs, err.Error())
					}
				}
			}
		}
	}
	if len(errs) > 0 {
		if len(errs) > 8 {
			errs = append(errs[:8], fmt.Sprintf("... and %d more", len(errs)-8))
		}
		return fmt.Errorf("model mismatch:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// TestReplayWriteToReapedFile: a write and then the delete of the same
// committed file share an NVRAM half, the CP that drains it reaps the file,
// and the power fails between the superblock write and the freeing of the
// half. Replay meets the write with its file already gone from the media;
// that is the record's effect already applied, not a corrupt log — recovery
// used to panic on it.
func TestReplayWriteToReapedFile(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	sys.ClientThread("w", func(c *ClientCtx) {
		c.Write(0, ino, 3, 1)
		c.Delete(0, ino)
		sys.ForceCP()
	})
	sys.SetCPPhaseHook(func(phase string) bool {
		if phase == "post-commit" {
			sys.RequestHalt()
		}
		return phase == "post-commit"
	})
	sys.Run(Second)
	if !sys.Halted() || len(sys.m0().log.Replay()) != 2 {
		t.Fatalf("halted=%v with %d records in NVRAM; want the post-commit boundary with both", sys.Halted(), len(sys.m0().log.Replay()))
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if rec.FileExists(0, ino) {
		t.Fatal("the deleted file came back")
	}
	if rep := rec.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %s", rep)
	}
}

// TestRefusedOpsAreCounted: an operation the system refuses still completes
// a client round trip, so it must appear in the op count and the latency
// histogram alike — Results.Ops is the histogram's count. A refused
// CloneCreate used to bump only the former.
func TestRefusedOpsAreCounted(t *testing.T) {
	sys, ino := newCrashSystem(t, cloneConfig())
	defer sys.Shutdown()
	before := sys.snap()
	cl := sys.ClientThread("refused", func(c *ClientCtx) {
		for _, ok := range []bool{
			c.Delete(0, ino+100),
			c.SnapDelete(0, 99),
			c.SnapRestore(0, 99),
			c.CloneSplit(0),
		} {
			if ok {
				t.Error("an operation on a nonexistent object was not refused")
			}
		}
		if _, ok := c.CloneCreate(0, 99); ok {
			t.Error("CloneCreate of a nonexistent snapshot was not refused")
		}
		id := c.SnapCreate(0)
		for n := 0; n <= sys.cfg.CloneSlots; n++ {
			if _, ok := c.CloneCreate(0, id); ok != (n < sys.cfg.CloneSlots) {
				t.Errorf("CloneCreate %d with %d slots: ok=%v", n+1, sys.cfg.CloneSlots, ok)
			}
		}
	})
	sys.Run(Second)
	r := sys.memberDiffs(before, sys.snap())[0]
	// Five refusals above, SnapCreate, CloneSlots binds and one more refusal.
	if want := uint64(7 + sys.cfg.CloneSlots); cl.Ops != want || r.Ops != want || r.lat.Count != want {
		t.Fatalf("client issued %d ops (want %d): window Ops = %d, latency samples = %d", cl.Ops, want, r.Ops, r.lat.Count)
	}
}

// TestVolMemberRange: every valid global volume index round-trips through
// volMember/globalVol, and one past the end — which used to die dividing by
// a zero CloneSlots, or with an anonymous index panic — names itself.
func TestVolMemberRange(t *testing.T) {
	for _, members := range []int{1, 2} {
		for _, slots := range []int{0, 2} {
			cfg := clusterConfig(members)
			cfg.CloneSlots = slots
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := members * (cfg.Volumes + slots)
			for vol := 0; vol < n; vol++ {
				m, lv := sys.volMember(vol)
				if lv < 0 || lv >= cfg.Volumes+slots || (vol >= members*cfg.Volumes) != (lv >= cfg.Volumes) {
					t.Errorf("members=%d slots=%d: volume %d resolved to local %d", members, slots, vol, lv)
				}
				if back := sys.globalVol(m.id, lv); back != vol {
					t.Errorf("members=%d slots=%d: volume %d -> (member %d, local %d) -> %d", members, slots, vol, m.id, lv, back)
				}
			}
			for _, vol := range []int{-1, n, n + 1} {
				want := fmt.Sprintf("wafl: volume %d out of range [0, %d)", vol, n)
				func() {
					defer func() {
						if got := recover(); got != want {
							t.Errorf("members=%d slots=%d: CloneBound(%d) panicked with %v, want %q", members, slots, vol, got, want)
						}
					}()
					sys.CloneBound(vol)
				}()
			}
			sys.Shutdown()
		}
	}
}
