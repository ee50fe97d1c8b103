package wafl

import (
	"bytes"
	"fmt"
	"testing"
)

// clusterConfig returns a fast two-member cluster configuration.
func clusterConfig(members int) Config {
	cfg := smallConfig()
	cfg.Members = members
	return cfg
}

// TestClusterBasic drives clients against every member of a two-member
// cluster through the global volume space and checks routing, handles,
// durability, and per-member fsck.
func TestClusterBasic(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	if sys.Members() != 2 {
		t.Fatalf("Members() = %d, want 2", sys.Members())
	}
	if sys.TotalVolumes() != 2*cfg.Volumes {
		t.Fatalf("TotalVolumes() = %d, want %d", sys.TotalVolumes(), 2*cfg.Volumes)
	}

	// One file per global volume; handles on member 1 must carry its id.
	inos := make([]uint64, sys.TotalVolumes())
	for v := range inos {
		inos[v] = sys.CreateFileDirect(v, 256)
		wantMember := v / cfg.Volumes
		if got := handleMember(inos[v]); got != wantMember {
			t.Fatalf("vol %d: handle member tag = %d, want %d", v, got, wantMember)
		}
	}

	done := 0
	for v := range inos {
		v := v
		sys.ClientThread(fmt.Sprintf("cluster-client-%d", v), func(c *ClientCtx) {
			for op := 0; op < 50; op++ {
				c.Write(v, inos[v], FBN(c.Rand(200)), 2)
			}
			c.Read(v, inos[v], 0, 1)
			done++
		})
	}
	for i := 0; i < 64 && done < len(inos); i++ {
		sys.Run(100 * Millisecond)
	}
	if done < len(inos) {
		t.Fatalf("only %d/%d clients finished", done, len(inos))
	}
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Both members must have taken ops and committed CPs of their own.
	for i := 0; i < sys.Members(); i++ {
		info := sys.MemberStats(i)
		if info.Client.Ops == 0 {
			t.Errorf("member %d served no ops", i)
		}
		if info.CPCount == 0 {
			t.Errorf("member %d committed no CPs", i)
		}
		if rep := sys.FsckMember(i); !rep.OK() {
			t.Errorf("member %d fsck: %s", i, rep)
			for _, e := range rep.Errors {
				t.Log("  ", e)
			}
		}
	}
	// Content spot check through the routing path.
	for v := range inos {
		if err := sys.VerifyAgainst(v, inos[v], 0); err != nil {
			// FBN 0 may be a hole if the random writes never hit it; only
			// writes at fbn 0 are guaranteed by the read above for holes.
			if sys.VerifyRead(v, inos[v], 0) != nil {
				t.Errorf("vol %d: %v", v, err)
			}
		}
	}
}

// TestClusterDeterminism runs the same two-member workload twice and
// requires identical event counts and superblock bytes — the cluster keeps
// the simulator's same-seed-same-run contract.
func TestClusterDeterminism(t *testing.T) {
	run := func() ([]byte, uint64) {
		sys, err := NewSystem(clusterConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		inos := make([]uint64, sys.TotalVolumes())
		for v := range inos {
			inos[v] = sys.CreateFileDirect(v, 256)
		}
		done := 0
		for v := range inos {
			v := v
			sys.ClientThread(fmt.Sprintf("det-client-%d", v), func(c *ClientCtx) {
				for op := 0; op < 40; op++ {
					c.Write(v, inos[v], FBN(c.Rand(200)), 1+int(c.Rand(3)))
				}
				done++
			})
		}
		for i := 0; i < 64 && done < len(inos); i++ {
			sys.Run(100 * Millisecond)
		}
		if err := sys.Quiesce(); err != nil {
			t.Fatal(err)
		}
		return sys.SuperblockBytes(), sys.Events()
	}
	sb1, ev1 := run()
	sb2, ev2 := run()
	if ev1 != ev2 {
		t.Fatalf("event counts differ: %d vs %d", ev1, ev2)
	}
	if !bytes.Equal(sb1, sb2) {
		t.Fatal("superblock bytes differ between identical runs")
	}
}

// TestMemberCrashIndependence crashes one member of a two-member cluster
// while the other keeps serving, then recovers it in place: survivors must
// make progress during the outage, acknowledged writes on the crashed
// member must survive via NVRAM replay, and both members must fsck clean.
func TestMemberCrashIndependence(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	vol0 := 0           // member 0
	vol1 := cfg.Volumes // member 1's first global volume
	ino0 := sys.CreateFileDirect(vol0, 256)
	ino1 := sys.CreateFileDirect(vol1, 256)

	// A client on member 1 writes a known set of blocks, then the member
	// crashes mid-life with those writes acknowledged but not all committed.
	acked := 0
	c1 := sys.ClientThread("victim-client", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 10000; i++ {
			c.Write(vol1, ino1, FBN(i%64), 1)
			acked = i + 1
		}
	})
	// A survivor client on member 0 runs throughout.
	survOps := 0
	sys.ClientThread("survivor-client", func(c *ClientCtx) {
		for i := 0; c.Alive(); i++ {
			c.Write(vol0, ino0, FBN(i%64), 1)
			survOps++
		}
	})
	sys.Run(20 * Millisecond)
	if acked == 0 || survOps == 0 {
		t.Fatalf("workload did not start (acked=%d surv=%d)", acked, survOps)
	}

	statsAtCrash := sys.MemberStats(1) // a window opens here and spans the outage
	sys.CrashMember(1, c1)
	ackedAtCrash := acked
	survAtCrash := survOps

	// Survivor keeps serving while member 1 is down.
	sys.Run(20 * Millisecond)
	if survOps <= survAtCrash {
		t.Fatalf("survivor made no progress during member outage (%d -> %d)", survAtCrash, survOps)
	}
	if acked != ackedAtCrash {
		t.Fatalf("crashed member acked ops while down (%d -> %d)", ackedAtCrash, acked)
	}

	if err := sys.RecoverMember(1); err != nil {
		t.Fatal(err)
	}
	// Let the recovery CP drain the replayed log, survivor still running.
	sys.Run(50 * Millisecond)

	// The window spanning the crash: the remount rebuilt the allocator, cleaner
	// pool, CP engine, Waffinity scheduler and mounted a new aggregate, all
	// counting from zero again, so without the carried base every one of
	// their counters would run backwards here and the delta would wrap.
	after := leafMap(sys.MemberStats(1))
	sys.MemberStats(1).Sub(statsAtCrash).Each(func(name string, v int64) {
		if v < 0 || v > after[name] {
			t.Errorf("window across RecoverMember: %s = %d, cumulative after = %d", name, v, after[name])
		}
	})
	if cps := statsAtCrash.CP.CPs; cps == 0 || after["CP.CPs"] <= int64(cps) {
		t.Errorf("CP.CPs went %d -> %d across the crash; want it to continue", cps, after["CP.CPs"])
	}

	// Every write acknowledged before the crash must be present.
	checked := 0
	for i := 0; i < ackedAtCrash && i < 64; i++ {
		if err := sys.VerifyAgainst(vol1, ino1, FBN(i)); err != nil {
			t.Errorf("acked write lost after member recovery: %v", err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing verified")
	}

	// Recovered member serves new work.
	done := false
	sys.ClientThread("post-recovery-client", func(c *ClientCtx) {
		c.Write(vol1, ino1, 200, 2)
		done = true
	})
	for i := 0; i < 32 && !done; i++ {
		sys.Run(10 * Millisecond)
	}
	if !done {
		t.Fatal("recovered member did not serve new work")
	}

	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.Members(); i++ {
		if rep := sys.FsckMember(i); !rep.OK() {
			t.Errorf("member %d fsck after crash/recovery: %s", i, rep)
			for _, e := range rep.Errors {
				t.Log("  ", e)
			}
		}
	}
}

// TestPlacement checks that the capacity-aware placement policy steers new
// files toward the member with more free space and that placed handles
// route back to the right member.
func TestPlacement(t *testing.T) {
	cfg := clusterConfig(2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	// Fill a chunk of member 0 so member 1 has clearly more free space.
	for v := 0; v < cfg.Volumes; v++ {
		ino := sys.CreateFileDirect(v, 8192)
		sys.Prewrite(v, ino, 8192, false)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}

	vol, ino := sys.PlaceFile(64)
	if got := vol / cfg.Volumes; got != 1 || handleMember(ino) != 1 {
		t.Fatalf("placement chose member %d (vol %d, handle on member %d), want emptier member 1", got, vol, handleMember(ino))
	}

	var placedVol int
	var placedIno uint64
	done := false
	sys.ClientThread("placer", func(c *ClientCtx) {
		placedVol, placedIno = c.CreatePlaced(64)
		c.Write(placedVol, placedIno, 0, 2)
		done = true
	})
	for i := 0; i < 32 && !done; i++ {
		sys.Run(10 * Millisecond)
	}
	if !done {
		t.Fatal("placed create did not complete")
	}
	if handleMember(placedIno) != placedVol/cfg.Volumes {
		t.Fatalf("placed handle member %d does not match volume %d", handleMember(placedIno), placedVol)
	}
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyAgainst(placedVol, placedIno, 0); err != nil {
		t.Fatal(err)
	}
}
