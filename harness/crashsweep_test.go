package harness

import (
	"fmt"
	"slices"
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
	cfg := sweepConfig()
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
		"fsck: refs=3986 used=3986 leaked=0 double=0 missing=0 containerErrs=0 vvbnErrs=0 snapErrs=0 idxErrs=0 parityErrs=0 files=2 snaps=4 errs=0"
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
	scheds := crashSchedules(2, []int64{1})
	for i := range scheds {
		s := &scheds[i]
		if s.clients == sweepClients {
			s.clients = 2
		}
		if s.steps == sweepOps {
			s.steps = 60
		}
		if s.bounds > 0 {
			s.bounds = 3
		}
	}
	tab, res, err := crashSweep(scheds)
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

// schedNamed returns the schedule of scheds named name.
func schedNamed(t *testing.T, scheds []schedule, name string) schedule {
	t.Helper()
	i := slices.IndexFunc(scheds, func(s schedule) bool { return s.name == name })
	if i < 0 {
		t.Fatalf("no %s schedule", name)
	}
	return scheds[i]
}

// TestSweepRunsShort: a boundary schedule asked for more boundaries than its
// workload reaches says so in its row and in the result, instead of stopping
// quietly — the registry's verdict turns that into a gate failure.
func TestSweepRunsShort(t *testing.T) {
	s := schedNamed(t, crashSchedules(sweepPoints, []int64{1}), "cp-phase/parallel-cp")
	s.clients, s.steps, s.mix, s.bounds = 1, 20, filesMix(5), 40
	tab, res, err := crashSweep([]schedule{s})
	if err != nil || !res.OK() {
		t.Fatalf("%v\n%s", err, tab.String())
	}
	if res.Requested != 40 || res.PointsRun == 0 || res.PointsRun >= 40 || !strings.Contains(tab.Rows[0][2], "of 40: boundary space exhausted") {
		t.Fatalf("ran %d of %d; want a short row:\n%s", res.PointsRun, res.Requested, tab.String())
	}
}

// TestOverlappingStripeWrites sweeps the schedule whose crash at event 12422
// once recovered a stripe whose parity covered stale data: two tetris writes
// of one RAID group overlapped in stripes, and the second's reconstruction
// reads ran while a fault delayed the first's data write, so fsck counted
// parity errors once the system quiesced. raid.Group.Write now holds the
// second back until the first is done.
func TestOverlappingStripeWrites(t *testing.T) {
	s := schedNamed(t, crashSchedules(sweepPoints, []int64{4}), "history/serial-cp")
	tab, res, err := crashSweep([]schedule{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.PointsRun != sweepPoints || !res.OK() {
		t.Fatalf("ran %d of %d points:\n%s", res.PointsRun, res.Requested, tab.String())
	}
}
