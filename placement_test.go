package wafl

import (
	"fmt"
	"slices"
	"testing"
)

// TestPlacementReservationsDrain is the regression test for the placement
// ingest-reservation leak: PlaceFile charges Member.reserved with the
// file's expected size, and before the fix nothing ever released the
// charge — every placed create permanently shrank the member's effective
// free space, so a long-lived cluster's placement decisions degraded
// without bound. With the fix, placed writes consume their file's
// reservation as they land and Delete refunds the remainder, so under
// create/write/delete churn the outstanding reservation must return to
// zero and placement must stay balanced across identical members.
func TestPlacementReservationsDrain(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	const rounds = 200
	const size = 64
	counts := make([]int, 2)
	done := false
	sys.ClientThread("churn", func(c *ClientCtx) {
		type placed struct {
			vol int
			ino uint64
		}
		var partial []placed // partially written files awaiting delete
		for r := 0; r < rounds && c.Alive(); r++ {
			if err := ledgerErr(sys); err != nil {
				t.Errorf("round %d: %v", r, err)
			}
			vol, ino := c.CreatePlaced(size)
			counts[vol/cfg.Volumes]++
			if r%2 == 0 {
				// Fully written: the reservation drains block by block as
				// the writes land.
				for fbn := FBN(0); fbn < size; fbn += 8 {
					c.Write(vol, ino, fbn, 8)
				}
			} else {
				// Half written: the rest of the reservation is only
				// released by the refund on delete.
				for fbn := FBN(0); fbn < size/2; fbn += 8 {
					c.Write(vol, ino, fbn, 8)
				}
				partial = append(partial, placed{vol, ino})
			}
			if len(partial) > 4 {
				old := partial[0]
				partial = partial[1:]
				if !c.Delete(old.vol, old.ino) {
					t.Errorf("delete of churn file vol%d ino%d failed", old.vol, old.ino)
				}
			}
		}
		// Drain the tail: every partially written file must be deleted so
		// its bound remainder is refunded.
		for _, p := range partial {
			if !c.Delete(p.vol, p.ino) {
				t.Errorf("final delete of vol%d ino%d failed", p.vol, p.ino)
			}
		}
		done = true
	})
	for i := 0; i < 64 && !done; i++ {
		sys.Run(50 * Millisecond)
	}
	if !done {
		t.Fatal("churn did not finish")
	}

	// The leak assertion: with every placed file either fully written or
	// deleted, no ingest reservation may remain outstanding. Pre-fix code
	// fails here with rounds*size blocks still reserved.
	var reserved int64
	for i := 0; i < sys.Members(); i++ {
		reserved += sys.MemberStats(i).Reserved
	}
	if reserved != 0 {
		t.Fatalf("reservations leaked: %d blocks still reserved after churn (pre-fix bug)", reserved)
	}
	if err := ledgerErr(sys); err != nil {
		t.Fatal(err)
	}

	// Balance assertion: identical members under symmetric churn must split
	// placements evenly (within 1% of the round count).
	diff := counts[0] - counts[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > rounds/100 {
		t.Fatalf("placement spread %d/%d exceeds 1%% of %d rounds", counts[0], counts[1], rounds)
	}
}

// TestRemountPreservesReservations pins what a crash/recover cycle does to
// outstanding ingest reservations: a placed file a CP committed keeps its
// charge, one placed after it is lost with its charge, and the rebuilt
// members share no ledger with the dead ones (the original bug shared the
// slice header, so post-recovery mutations wrote through to the dead
// member's state and vice versa).
func TestRemountPreservesReservations(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	// Charge a reservation, commit the file, and leave the charge
	// outstanding (no writes land).
	vol, _ := sys.PlaceFile(128)
	member := vol / cfg.Volumes
	if got := sys.MemberStats(member).Reserved; got != 128 {
		t.Fatalf("member %d reserves %d, want 128", member, got)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	// No CP commits this one: the crash loses the file and its charge.
	sys.PlaceFile(32)

	dead := slices.Clone(sys.members)
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.MemberStats(member).Reserved; got != 128 {
		t.Fatalf("reservation lost across remount: member %d reserves %d, want 128", member, got)
	}
	if got := rec.Stats().Reserved; got != 128 {
		t.Fatalf("recovered total = %d, want 128: the unflushed placement's charge outlived its file", got)
	}
	// Mutating the recovered members' reservations must not write through
	// to the dead members' state.
	rec.PlaceFile(64)
	var old int64
	for _, m := range dead {
		for _, r := range m.reserved {
			old += r
		}
	}
	if old != 128+32 {
		t.Fatalf("recovered-system mutation aliased into dead member state: dead total = %d, want %d", old, 128+32)
	}
	if now := rec.Stats().Reserved; now != 128+64 {
		t.Fatalf("recovered total = %d, want %d", now, 128+64)
	}
}

// ledgerErr reports a member whose ingest reservation on some local volume
// is not the sum of the placements bound on it.
func ledgerErr(sys *System) error {
	for _, m := range sys.members {
		sum := make([]int64, len(m.reserved))
		for k, rem := range m.placements {
			sum[k.vol] += rem
		}
		if !slices.Equal(sum, m.reserved) {
			return fmt.Errorf("member %d reserves %v per volume, its placements sum to %v", m.id, m.reserved, sum)
		}
	}
	return nil
}

// TestPlainCreateTakesNoCharge pins that a placement's charge belongs to the
// file placed: a plain create on its volume takes none of it, and writing
// the placed file in full releases all of it. While a charge waited for the
// next create on its volume, the plain 8-block file took it and 64 blocks
// stayed reserved.
func TestPlainCreateTakesNoCharge(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	const size = 64
	vol, ino := sys.PlaceFile(size)
	sys.CreateFileDirect(vol, 8)
	done := false
	sys.ClientThread("writer", func(c *ClientCtx) {
		for fbn := FBN(0); fbn < size; fbn += 8 {
			c.Write(vol, ino, fbn, 8)
		}
		done = true
	})
	for i := 0; i < 32 && !done; i++ {
		sys.Run(10 * Millisecond)
	}
	if !done {
		t.Fatal("writes did not finish")
	}
	if got := sys.MemberStats(vol / cfg.Volumes).Reserved; got != 0 {
		t.Fatalf("member %d still reserves %d blocks after the placed file was written in full", vol/cfg.Volumes, got)
	}
	if err := ledgerErr(sys); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementLedgerAcrossRestoreAndCrash checks that each member's
// reservation stays the sum of its placements when a SnapRestore discards
// placed files (their charges are refunded) and across a member crash and
// remount (the committed files' charges carry over, the lost files' go with
// them), and that placements after the remount, which reuse the inode
// numbers of files the crash lost, are charged once each.
func TestPlacementLedgerAcrossRestoreAndCrash(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	const size = 64
	vol, _ := sys.PlaceFile(size)
	mid, lv := vol/cfg.Volumes, vol%cfg.Volumes
	var charged int64
	restored := false
	sys.ClientThread("placer", func(c *ClientCtx) {
		id := c.SnapCreate(vol)
		// Place until a written-in-part file besides the first lands on the
		// snapshot's volume; the rest stand charged on the others.
		for n := 0; n < 4*cfg.Volumes; n++ {
			v, ino := c.CreatePlaced(size)
			c.Write(v, ino, 0, 8)
			if v == vol {
				break
			}
		}
		if err := ledgerErr(sys); err != nil {
			t.Errorf("before the restore: %v", err)
		}
		charged = sys.members[mid].reserved[lv]
		restored = c.SnapRestore(vol, id)
	})
	for i := 0; i < 64 && !restored; i++ {
		sys.Run(10 * Millisecond)
	}
	if !restored {
		t.Fatal("SnapRestore did not complete")
	}
	if err := ledgerErr(sys); err != nil {
		t.Fatalf("after the restore: %v", err)
	}
	if r := sys.members[mid].reserved[lv]; charged < 2*size-8 || r != 0 {
		t.Fatalf("restored volume %d reserves %d blocks, %d before the restore, want 0 after at least %d", vol, r, charged, 2*size-8)
	}

	// Files placed host-side are not logged: a CP commits the first ones,
	// the crash loses the rest with their charges, and placements after the
	// remount reuse the lost files' inode numbers, each charged once. Crash
	// the member with the most outstanding charge.
	for range 2 * cfg.Volumes {
		sys.PlaceFile(size)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	var flushed [2]int64
	var kept [2]map[placeKey]bool
	for i := range flushed {
		flushed[i], kept[i] = sys.MemberStats(i).Reserved, map[placeKey]bool{}
		for k := range sys.members[i].placements {
			kept[i][k] = true
		}
	}
	for range 2 * cfg.Volumes {
		sys.PlaceFile(size)
	}
	crashed := 0
	if sys.MemberStats(1).Reserved > sys.MemberStats(0).Reserved {
		crashed = 1
	}
	lost := map[placeKey]bool{}
	for k := range sys.members[crashed].placements {
		if !kept[crashed][k] {
			lost[k] = true
		}
	}
	if len(lost) == 0 {
		t.Fatal("no unflushed placement on the member to crash")
	}
	sys.CrashMember(crashed)
	if err := ledgerErr(sys); err != nil {
		t.Fatalf("after the crash: %v", err)
	}
	if err := sys.RecoverMember(crashed); err != nil {
		t.Fatal(err)
	}
	if err := ledgerErr(sys); err != nil {
		t.Fatalf("after the remount: %v", err)
	}
	if got := sys.MemberStats(crashed).Reserved; got != flushed[crashed] {
		t.Fatalf("member %d reserves %d after the remount, want the flushed files' %d", crashed, got, flushed[crashed])
	}
	reused := 0
	for range 4 * cfg.Volumes {
		v, ino := sys.PlaceFile(size)
		m, k := sys.members[v/cfg.Volumes], placeKey{v % cfg.Volumes, handleIno(ino)}
		if got := m.placements[k]; got != size {
			t.Errorf("file %d on member %d volume %d is charged %d, want %d", k.ino, m.id, k.vol, got, size)
		}
		if m.id == crashed && lost[k] {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no placement after the remount reused a lost file's inode number")
	}
	if err := ledgerErr(sys); err != nil {
		t.Fatalf("placed after the remount: %v", err)
	}
}
