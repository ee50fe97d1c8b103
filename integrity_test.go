package wafl

import (
	"testing"

	"wafl/internal/block"
)

// fullPayloadConfig verifies byte-exact content end to end.
func fullPayloadConfig() Config {
	cfg := smallConfig()
	cfg.PayloadBytes = 4096
	cfg.NVRAMHalfBytes = 1 << 20
	return cfg
}

func TestDataIntegrityThroughCP(t *testing.T) {
	sys, err := NewSystem(fullPayloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 1<<14)
	const nblocks = 500
	sys.ClientThread("writer", func(c *ClientCtx) {
		for i := 0; i < nblocks; i += 4 {
			c.Write(0, ino, FBN(i), 4)
		}
	})
	sys.Run(500 * Millisecond)
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for fbn := FBN(0); fbn < nblocks; fbn++ {
		if err := sys.VerifyAgainst(0, ino, fbn); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFsckCleanAfterQuiesce(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	inos := []uint64{
		sys.CreateFileDirect(0, 1<<14),
		sys.CreateFileDirect(1, 1<<14),
	}
	sys.ClientThread("w0", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 3000; i++ {
			c.Write(0, inos[0], FBN((i*8)%4096), 8)
		}
	})
	sys.ClientThread("w1", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 3000; i++ {
			c.Write(1, inos[1], FBN(int(c.Rand(4096))), 4)
		}
	})
	sys.Run(2 * Second)
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	rep := sys.Fsck()
	t.Logf("%s", rep)
	if !rep.OK() {
		for _, e := range rep.Errors {
			t.Errorf("fsck: %s", e)
		}
		t.Fatalf("fsck failed: %s", rep)
	}
	if rep.Files != 2 {
		t.Fatalf("fsck found %d files, want 2", rep.Files)
	}
}

func TestCrashRecoveryRoundTrip(t *testing.T) {
	sys, err := NewSystem(fullPayloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 1<<14)
	written := 0
	sys.ClientThread("writer", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 2000; i++ {
			c.Write(0, ino, FBN(i%2048), 2)
			written = i
		}
	})
	// Crash mid-run, with CPs completed and operations still in NVRAM.
	sys.Run(300 * Millisecond)
	if sys.CPCount() == 0 {
		t.Fatal("test needs at least one committed CP before the crash")
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if written < 10 {
		t.Fatalf("only %d ops before crash", written)
	}
	// Every acknowledged write must be present after recovery (last CP +
	// NVRAM replay).
	checked := 0
	for fbn := FBN(0); fbn < 2048 && checked < 500; fbn++ {
		got := rec.VerifyRead(0, ino, fbn)
		if got == nil {
			continue // hole: this FBN was beyond the written range
		}
		if err := rec.VerifyAgainst(0, ino, fbn); err != nil {
			t.Fatal(err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no blocks recovered")
	}
	// The recovered system must be fully usable: flush replayed state and
	// fsck it.
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	rep := rec.Fsck()
	if !rep.OK() {
		for _, e := range rep.Errors {
			t.Errorf("fsck: %s", e)
		}
		t.Fatalf("post-recovery fsck failed: %s", rep)
	}
}

func TestCrashRecoveryWithCreates(t *testing.T) {
	sys, err := NewSystem(fullPayloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	var inos []uint64
	sys.ClientThread("creator", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 50; i++ {
			ino := c.Create(0, 256)
			c.Write(0, ino, 0, 1)
			inos = append(inos, ino)
		}
	})
	sys.Run(200 * Millisecond)
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, ino := range inos {
		if err := rec.VerifyAgainst(0, ino, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// A payload's name expands to exactly the bytes of the pattern's formula,
// the one bench's aged-payload oracle mirrors.
func TestPayloadMatchesFormula(t *testing.T) {
	for _, n := range []int{1, 23, 24, 25, 64, 512, 4096} {
		for _, tag := range []byte{0, 1, 255} {
			for _, h := range []struct {
				ino uint64
				fbn FBN
			}{{0, 0}, {1, 1}, {7, 300}, {1<<16 | 42, 1<<40 + 12345}, {^uint64(0), ^FBN(0)}} {
				got := block.NameOf(h.ino, h.fbn, tag, n).AppendBytes(nil)
				if len(got) != n {
					t.Fatalf("len %d: expands to %d bytes", n, len(got))
				}
				for i := range got {
					if want := byte(h.ino) ^ byte(uint64(h.fbn)>>(uint(i)%24)) ^ tag ^ byte(i); got[i] != want {
						t.Fatalf("len %d tag %d ino %d fbn %d: byte %d = %#x, want %#x", n, tag, h.ino, h.fbn, i, got[i], want)
					}
				}
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, Time) {
		sys, err := NewSystem(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		ino := sys.CreateFileDirect(0, 1<<14)
		sys.ClientThread("w", func(c *ClientCtx) {
			for i := 0; c.Alive(); i++ {
				c.Write(0, ino, FBN(int(c.Rand(8192))), 8)
			}
		})
		sys.Run(300 * Millisecond)
		return sys.m0().client.Ops, sys.CPCount(), sys.Now()
	}
	ops1, cps1, _ := run()
	ops2, cps2, _ := run()
	if ops1 != ops2 || cps1 != cps2 {
		t.Fatalf("nondeterministic: ops %d vs %d, cps %d vs %d", ops1, ops2, cps1, cps2)
	}
}
