package wafl

import (
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

// TestRemountPreservesReservations pins the remount path's deep copy of the
// reservation state: a crash/recover cycle must carry outstanding ingest
// reservations over to the new Member without aliasing the old slice (the
// original bug shared the slice header, so post-recovery mutations wrote
// through to the dead member's state and vice versa).
func TestRemountPreservesReservations(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Charge a reservation and leave it outstanding (no writes land).
	vol := sys.PlaceFile(128)
	member := vol / cfg.Volumes
	if got := sys.MemberStats(member).Reserved; got != 128 {
		t.Fatalf("member %d reserves %d, want 128", member, got)
	}

	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	if got := rec.MemberStats(member).Reserved; got != 128 {
		t.Fatalf("reservation lost across remount: member %d reserves %d, want 128", member, got)
	}
	// Mutating the recovered member's reservations must not write through
	// to the crashed system's state.
	rec.PlaceFile(64)
	var old, now int64
	for i := 0; i < 2; i++ {
		old += sys.MemberStats(i).Reserved
		now += rec.MemberStats(i).Reserved
	}
	if old != 128 {
		t.Fatalf("recovered-system mutation aliased into old member state: old total = %d, want 128", old)
	}
	if now != 128+64 {
		t.Fatalf("recovered total = %d, want %d", now, 128+64)
	}
}
