package wafl

import (
	"fmt"
	"strings"
	"testing"

	"wafl/internal/aggregate"
	"wafl/internal/block"
	"wafl/internal/nsmodel"
	"wafl/internal/nvlog"
)

// The replay contract (§II-C), pinned at the unit level: every namespace
// operation is Member.apply of its log record, so (a) applying a history
// again changes nothing and (b) what the ClientCtx methods did is what a
// crash replays. Both tests drive the one seeded generator (nsmodel.Client)
// through nsmodel.Ops: the ClientCtx methods, or applyOps straight over
// Member.apply.

// applyFn is Member.apply or a deliberately broken stand-in for it.
type applyFn func(*Member, *nvlog.Record) bool

// applyOps performs operations through apply alone — no client, no NVRAM, no
// simulated time — and keeps the record of each one that took effect, with
// the identifiers apply assigned: the log a crash would replay. No CP runs
// under it, so it refuses what a live system's log could not hold: anything
// after a SnapRestore on its volume (the gate), and anything but the split of
// a clone, which never binds.
type applyOps struct {
	sys   *System
	apply applyFn
	recs  []nvlog.Record
}

func (a *applyOps) do(vol int, rec nvlog.Record) (nvlog.Record, bool) {
	m, lv := a.sys.volMember(vol)
	if rec.Kind != nvlog.OpSnapRestore && m.a.Volume(lv).RestorePending() || rec.Kind != nvlog.OpCloneSplit && lv >= a.sys.cfg.Volumes {
		return rec, false
	}
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

func (a *applyOps) Alive() bool { return true }

// The history mixes draw neither of these.
func (a *applyOps) Getattr(int, uint64) Duration                     { return 0 }
func (a *applyOps) WriteBulk(int, uint64, FBN, int) (Duration, bool) { return 0, false }

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

const (
	historyFileBlocks = 64 // FBN span of every file of a history
	historySetupFiles = 3
)

// newHistorySystem builds a two-volume, two-clone-slot system holding what a
// history needs to already be on media: a few written files per volume and,
// on volume 0, a materialized snapshot clones can bind to. It returns the
// matching model with one client over both volumes.
func newHistorySystem(t *testing.T, nvramHalf uint64, seed int64) (*System, *nsmodel.Model, *nsmodel.Client) {
	t.Helper()
	cfg := cloneConfig()
	cfg.NVRAMHalfBytes = nvramHalf
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mo := nsmodel.New()
	did := func(op nsmodel.Op, res uint64) {
		mo.Begin(-1, op)
		mo.Ack(-1, res, true)
	}
	for vol := 0; vol < 2; vol++ {
		for i := 0; i < historySetupFiles; i++ {
			ino := sys.CreateFileDirect(vol, historyFileBlocks)
			sys.Prewrite(vol, ino, 16, false)
			did(nsmodel.Op{Kind: nsmodel.Create, Vol: vol, N: historyFileBlocks}, ino)
			did(nsmodel.Op{Kind: nsmodel.Write, Vol: vol, Ino: ino, N: 16}, 0)
		}
	}
	did(nsmodel.Op{Kind: nsmodel.SnapCreate}, sys.SnapCreateDirect(0))
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	return sys, mo, mo.Client(0, seed, []int{0, 1})
}

// without returns the all-kinds mix minus the given kinds.
func without(kinds ...nsmodel.Kind) nsmodel.Mix {
	mix := nsmodel.AllKinds
	for _, k := range kinds {
		mix.Weights[k] = 0
	}
	return mix
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
	live, _, client := newHistorySystem(t, 64<<20, seed)
	defer live.Shutdown()
	// No CP runs here, so only the set-up snapshot can be cloned — it is,
	// first, or the snapshots queued behind it make that draw unlikely — and
	// a SnapRestore closes its volume for good: the restores come late, and
	// one of each volume last.
	hist := &applyOps{sys: live, apply: apply}
	client.Run(hist, nsmodel.Mix{Script: []nsmodel.Op{{Kind: nsmodel.CloneCreate}}}, 0)
	client.Run(hist, without(nsmodel.SnapRestore), 300)
	client.Run(hist, nsmodel.AllKinds, 100)
	client.Run(hist, nsmodel.Mix{Script: []nsmodel.Op{{Kind: nsmodel.SnapRestore, Vol: 0}, {Kind: nsmodel.SnapRestore, Vol: 1}}}, 0)
	took := map[nvlog.OpKind]bool{}
	for _, rec := range hist.recs {
		took[rec.Kind] = true
	}
	for k := nvlog.OpWrite; k <= nvlog.OpCloneSplit; k++ {
		if !took[k] {
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
		sys, _, _ := newHistorySystem(t, 64<<20, seed)
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

// midSplit counts the SnapRestores a history issues on a clone whose split is
// in progress.
type midSplit struct {
	*ClientCtx
	n *int
}

func (c midSplit) SnapRestore(vol int, id uint64) bool {
	if m, lv := c.sys.volMember(vol); m.a.Volume(lv).CloneSplitting() {
		*c.n++
	}
	return c.ClientCtx.SnapRestore(vol, id)
}

// TestLiveEqualsReplay is contract (b): the same kind of history through the
// ClientCtx methods, with a log too large to trigger a CP on fullness, then
// crash, recover, quiesce. Every file handle, snapshot ID and clone volume
// index the live path returned must resolve, and every acknowledged block
// must read back — from the live volumes and from the snapshot images. The
// histories restore clones mid-split; seed 45's lands one inside the window
// in which the split step used to ignore the restore gate (a double free).
func TestLiveEqualsReplay(t *testing.T) {
	restoresMidSplit := 0
	for _, seed := range []int64{1, 2, 3, 45} {
		sys, mo, client := newHistorySystem(t, 64<<20, seed)
		done := false
		sys.ClientThread("history", func(c *ClientCtx) {
			// A quiet tail — none of the operations that request a CP —
			// leaves records in NVRAM for the crash to replay.
			client.Run(midSplit{c, &restoresMidSplit}, nsmodel.AllKinds, 240)
			client.Run(c, without(nsmodel.SnapCreate, nsmodel.SnapRestore, nsmodel.CloneCreate, nsmodel.CloneSplit), 60)
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
		if errs := mo.Verify(rec, true); len(errs) > 0 {
			t.Fatalf("seed %d: model mismatch:\n  %s\n%s", seed, strings.Join(errs, "\n  "), mo.Trail())
		}
		if rep := rec.Fsck(); !rep.OK() {
			t.Fatalf("seed %d: fsck after replay: %s", seed, rep)
		}
		rec.Shutdown()
	}
	if restoresMidSplit == 0 {
		t.Fatal("no history issued a SnapRestore on a clone mid-split")
	}
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
	before := sys.Stats()
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
	r := sys.Stats().Sub(before)
	// Five refusals above, SnapCreate, CloneSlots binds and one more refusal.
	if want := uint64(7 + sys.cfg.CloneSlots); cl.Ops != want || r.Client.Ops != want || r.Lat.Count != want {
		t.Fatalf("client issued %d ops (want %d): window Ops = %d, latency samples = %d", cl.Ops, want, r.Client.Ops, r.Lat.Count)
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
