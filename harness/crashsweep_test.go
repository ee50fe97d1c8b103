package harness

import (
	"fmt"
	"strings"
	"testing"

	"wafl"
)

// TestMediaReadSequencePinned pins which committed blocks the untimed read
// path reads, and in what order. Every ReadVBNRaw passes the fault plan's
// ReadErrEvery arm, so the media walkers (mount, the zombie and snapshot
// reclaim walk, demand loads, fsck) decide which reads fail and what
// Repairs counts; no digest sees untimed reads otherwise. The scenario is
// the crash sweep's system: one file per volume under writers that take and
// drop snapshots, a crash, recovery, a read of every block, quiesce, fsck.
// The constants were captured before the walkers moved into fs.File; a
// change that reads one block more or fewer moves them.
func TestMediaReadSequencePinned(t *testing.T) {
	cfg := DefaultCrashSweep().Base
	cfg.Seed = 1
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const span = 2048
	inos := make([]uint64, cfg.Volumes)
	for v := range inos {
		inos[v] = sys.CreateFileDirect(v, span)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	for v, ino := range inos {
		sys.ClientThread(fmt.Sprintf("w%d", v), func(c *wafl.ClientCtx) {
			var snaps []uint64
			for i := 1; c.Alive(); i++ {
				c.Write(v, ino, wafl.FBN(c.Rand(span-1)), 2)
				switch {
				case i%40 == 0:
					snaps = append(snaps, c.SnapCreate(v))
				case i%40 == 20 && len(snaps) > 1:
					c.SnapDelete(v, snaps[0])
					snaps = snaps[1:]
				}
			}
		})
	}
	sys.Run(300 * wafl.Millisecond)
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for v, ino := range inos {
		for fbn := wafl.FBN(0); fbn < span; fbn++ {
			rec.VerifyRead(v, ino, fbn)
		}
	}
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	rep := rec.Fsck()
	st := rec.Stats()
	got := fmt.Sprintf("peeks %d errs %d repairs %+v events %d\n%s",
		st.Faults.PeeksSeen, st.Faults.PeekErrs, st.Repairs, rec.Events(), rep)
	const want = "peeks 9058 errs 1006 repairs {Retries:521 Reconstructs:0} events 245537\n" +
		"fsck: refs=3986 used=3986 leaked=0 double=0 missing=0 containerErrs=0 vvbnErrs=0 snapErrs=0 idxErrs=0 files=2 snaps=4 errs=0"
	if got != want {
		t.Errorf("media read sequence moved:\n got %s\nwant %s", got, want)
	}
	if !rep.OK() {
		t.Errorf("fsck: %s %v", rep, rep.Errors)
	}
}

// TestCrashSweepSmall runs a miniature crash-schedule sweep — one seed, a
// few event-index points (and as many of the history schedule), a few phase
// boundaries — end to end. The full sweep is `make crashsweep`; this keeps
// `go test ./...` coverage of the harness itself cheap.
func TestCrashSweepSmall(t *testing.T) {
	cfg := DefaultCrashSweep()
	cfg.Seeds = []int64{1}
	cfg.Points = 2
	cfg.Phases = 3
	cfg.Clients = 2
	cfg.OpsPerClient = 60
	cfg.ClonePoints = 3
	tab, res, err := CrashSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 CP modes x (2 event indices + 2 of the history schedule + 3 phase
	// boundaries) + 1 overload point + 3 clone-window boundaries.
	if res.PointsRun != 18 || res.Requested != 18 {
		t.Fatalf("ran %d of %d points, want 18 of 18:\n%s", res.PointsRun, res.Requested, tab.String())
	}
	if !res.OK() {
		t.Fatalf("sweep failed:\n%s", tab.String())
	}
}

// TestSweepRunsShort: a boundary schedule asked for more boundaries than its
// workload reaches says so in its row and in the result, instead of stopping
// quietly — the registry's verdict turns that into a gate failure.
func TestSweepRunsShort(t *testing.T) {
	cfg := DefaultCrashSweep()
	cfg.Seeds, cfg.Points, cfg.Overload, cfg.ClonePoints = []int64{1}, 0, false, 0
	cfg.Modes, cfg.Clients, cfg.OpsPerClient, cfg.SnapEvery, cfg.Phases = []bool{true}, 1, 20, 5, 40
	tab, res, err := CrashSweep(cfg)
	if err != nil || !res.OK() {
		t.Fatalf("%v\n%s", err, tab.String())
	}
	if res.Requested != 40 || res.PointsRun == 0 || res.PointsRun >= 40 || !strings.Contains(tab.Rows[0][2], "of 40: boundary space exhausted") {
		t.Fatalf("ran %d of %d; want a short row:\n%s", res.PointsRun, res.Requested, tab.String())
	}
}
