package main

import (
	"bytes"

	"wafl"
	"wafl/internal/aggregate"
)

// agedPayload is the content System.AgeOverwrite leaves in a block: the
// facade's pattern for (ino, fbn) with payload tag 1. VerifyAgainst only
// knows tag 0, so the aged workload's set-up generation needs its own
// oracle; it mirrors the pattern in the facade's payload().
func agedPayload(ino uint64, fbn wafl.FBN, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(ino) ^ byte(uint64(fbn)>>(uint(i)%24)) ^ 1 ^ byte(i)
	}
	return p
}

// checkSystem is the post-window correctness check: stop the clients, drive
// CPs until everything is persistent, fsck the committed image, then verify
// the content of every non-hole block of every file the workload created.
func checkSystem(res *legResult, rec *recorder, wl *workloadDef, sys *wafl.System, payload int) {
	sys.Stop()
	var err error
	sp := rec.span("facade.quiesce", func() { err = sys.Quiesce() })
	res.Host["facade.quiesce_cpu_s"] = sp.UserS
	if err != nil {
		res.fail("quiesce: %v", err)
		return
	}
	var rep wafl.FsckReport
	sp = rec.span("facade.fsck", func() { rep = sys.Fsck() })
	res.Host["facade.fsck_cpu_s"] = sp.UserS
	if !rep.OK() {
		res.fail("fsck: %s %v", rep, rep.Errors)
	}
	var files, blocks uint64
	rec.span("bench.verify", func() {
		for vol := 0; vol < wl.volumes; vol++ {
			for ino := uint64(aggregate.FirstUserIno); sys.FileExists(vol, ino); ino++ {
				files++
				for fbn := wafl.FBN(0); uint64(fbn) < wl.fileBlocks; fbn++ {
					got := sys.VerifyRead(vol, ino, fbn)
					if got == nil {
						continue // hole
					}
					blocks++
					err := sys.VerifyAgainst(vol, ino, fbn)
					if err != nil && wl.agedTag && bytes.Equal(got[:payload], agedPayload(ino, fbn, payload)) {
						err = nil
					}
					if err != nil {
						res.fail("verify: %v", err)
					}
				}
			}
		}
	})
	res.Info["verified_files"] = float64(files)
	res.Info["verified_blocks"] = float64(blocks)
	if blocks == 0 {
		res.fail("verify: no written block found on %d files", files)
	}
}

const witnessBlocks = 4096

// checkDurability is the crash leg: a second system runs the same workload
// plus one bench-owned witness client that writes its own file sequentially
// and logs every acknowledged write host-side. The system is crashed in the
// middle of the window and recovered from committed media plus NVRAM; the
// recovered image must fsck clean and every acknowledged witness write must
// be readable, before and after the recovery CP. The witness exists only
// here, so it never perturbs a measured number.
func checkDurability(res *legResult, rec *recorder, wl *workloadDef, spec legSpec) {
	sys, err := wafl.NewSystem(wl.config(spec.Seed))
	if err != nil {
		res.fail("durability: NewSystem: %v", err)
		return
	}
	wl.attach(sys, spec.Quick)
	var witnessIno uint64
	var acked []wafl.FBN
	sys.ClientThread("bench-witness", func(c *wafl.ClientCtx) {
		// A logged create: replay recreates the file even if no CP has
		// persisted its inode record by the time of the crash.
		witnessIno = c.Create(0, witnessBlocks)
		for fbn := wafl.FBN(0); c.Alive(); fbn = (fbn + 1) % witnessBlocks {
			c.Write(0, witnessIno, fbn, 1)
			acked = append(acked, fbn)
		}
	})
	// The workloads create their files with CreateFileDirect, which is not
	// logged: a write to such a file can only be replayed once a CP has
	// persisted the file's inode record. Request that CP up front and, if
	// the crash point comes too early for it, wait for its commit.
	cps := sys.CPCount()
	sys.ForceCP()
	warmup, window := wl.simWindows(spec.Quick)
	sys.Run(warmup + window/2)
	for i := 0; sys.CPCount() == cps && i < 100; i++ {
		sys.Run(wafl.Millisecond)
	}
	if sys.CPCount() == cps {
		res.fail("durability: no consistency point committed before the crash point")
		return
	}
	sys.Crash()

	var recovered *wafl.System
	sp := rec.span("facade.recover", func() { recovered, err = sys.Recover() })
	res.Host["facade.recover_cpu_s"] = sp.UserS
	if err != nil {
		res.fail("durability: recover: %v", err)
		return
	}
	lost := func(when string) {
		for _, fbn := range acked {
			if err := recovered.VerifyAgainst(0, witnessIno, fbn); err != nil {
				res.fail("durability: acked write lost %s: %v", when, err)
			}
		}
	}
	lost("after recover")
	if err := recovered.Quiesce(); err != nil {
		res.fail("durability: quiesce after recover: %v", err)
		return
	}
	lost("after recovery CP")
	if rep := recovered.Fsck(); !rep.OK() {
		res.fail("durability: fsck after recover: %s %v", rep, rep.Errors)
	}
	res.Info["witness_acked_writes"] = float64(len(acked))
	if len(acked) == 0 {
		res.fail("durability: witness acknowledged no write before the crash")
	}
	recovered.Shutdown()
}
