package wafl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wafl/internal/aggregate"
	"wafl/internal/bcache"
	"wafl/internal/block"
	"wafl/internal/fs"
	"wafl/internal/nvlog"
	"wafl/internal/storage"
)

// crashConfig is fullPayloadConfig with a small NVRAM (frequent CPs) so a
// 300ms run crosses several consistency points with ops still in flight.
func crashConfig() Config {
	cfg := smallConfig()
	cfg.PayloadBytes = 4096
	cfg.NVRAMHalfBytes = 512 << 10
	return cfg
}

// newCrashSystem builds a crashConfig system with one committed base file:
// the direct create must reach media before any crash, or replaying a
// logged write to it would fault.
func newCrashSystem(t *testing.T, cfg Config) (*System, uint64) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 1<<14)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	return sys, ino
}

// attachTrackedWriter attaches a single client writing random blocks of a
// base file, recording each acknowledged write host-side. The returned
// slice aliases the recording; read it only while the scheduler is stopped.
func attachTrackedWriter(sys *System, ino uint64, acked *[]FBN) {
	sys.ClientThread("writer", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 3000; i++ {
			fbn := FBN(c.Rand(2048))
			c.Write(0, ino, fbn, 2)
			*acked = append(*acked, fbn)
		}
	})
}

func verifyAckedWrites(t *testing.T, sys *System, ino uint64, acked []FBN, label string) {
	t.Helper()
	for _, fbn := range acked {
		for b := FBN(0); b < 2; b++ {
			if err := sys.VerifyAgainst(0, ino, fbn+b); err != nil {
				t.Fatalf("%s: acked write lost: %v", label, err)
			}
		}
	}
}

// TestDoubleCrashSurvival is the §II-C regression test for the Recover
// re-logging fix: operations replayed from NVRAM must be re-protected in
// the recovered system's log, so a second crash before the next CP commits
// still cannot lose them. With the fix reverted (Recover not calling
// log.Restore), the second recovery loses every op that was in NVRAM at
// the first crash and this test fails.
func TestDoubleCrashSurvival(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	var acked []FBN
	attachTrackedWriter(sys, ino, &acked)
	sys.Run(300 * Millisecond)
	if len(acked) < 50 {
		t.Fatalf("only %d acked ops before crash", len(acked))
	}
	// The test is only meaningful if acknowledged ops are still in NVRAM.
	if sys.m0().log.ActiveOps() == 0 && !sys.m0().log.HasFrozen() {
		t.Fatal("no operations in NVRAM at crash time; grow the workload")
	}

	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	verifyAckedWrites(t, rec, ino, acked, "first recovery")

	// Second power loss before the recovered system runs a single event:
	// everything must still be protected by the restored NVRAM log.
	rec.Crash()
	rec2, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	verifyAckedWrites(t, rec2, ino, acked, "double-crash recovery")

	if err := rec2.Quiesce(); err != nil {
		t.Fatal(err)
	}
	verifyAckedWrites(t, rec2, ino, acked, "after quiesce")
	if rep := rec2.Fsck(); !rep.OK() {
		t.Fatalf("post-double-crash fsck failed: %s", rep)
	}
}

// TestReplayedOpsReprotected checks the mechanism directly: after Recover,
// the new log holds exactly the replayed records, sequence order intact.
func TestReplayedOpsReprotected(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	var acked []FBN
	attachTrackedWriter(sys, ino, &acked)
	sys.Run(300 * Millisecond)
	before := sys.m0().log.Replay()
	if len(before) == 0 {
		t.Fatal("no records in NVRAM at crash time")
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	after := rec.m0().log.Replay()
	if len(after) != len(before) {
		t.Fatalf("recovered log holds %d records, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i].Seq != before[i].Seq || after[i].Kind != before[i].Kind ||
			after[i].Ino != before[i].Ino || after[i].FBN != before[i].FBN {
			t.Fatalf("record %d mutated across recovery: %+v vs %+v", i, after[i], before[i])
		}
	}
}

// cpBoundaries is the phase-boundary sequence of one consistency point.
var cpBoundaries = []string{
	"start", "clean", "records", "metafiles", "voltable", "amap",
	"commit", "post-commit", "done",
}

// TestCrashAtEveryCPPhase crashes a workload run at each of the nine phase
// boundaries of its first client-triggered CP, recovering and verifying
// every acknowledged operation each time.
func TestCrashAtEveryCPPhase(t *testing.T) {
	for j, want := range cpBoundaries {
		j, want := j+1, want
		t.Run(fmt.Sprintf("%02d-%s", j, want), func(t *testing.T) {
			sys, ino := newCrashSystem(t, crashConfig())
			var acked []FBN
			attachTrackedWriter(sys, ino, &acked)
			hits := 0
			var got string
			sys.SetCPPhaseHook(func(phase string) bool {
				hits++
				if hits == j {
					got = phase
					sys.RequestHalt()
					return true
				}
				return false
			})
			sys.Run(2 * Second)
			if !sys.Halted() {
				t.Fatalf("boundary %d never reached", j)
			}
			if got != want {
				t.Fatalf("boundary %d is %q, want %q", j, got, want)
			}
			sys.Crash()
			rec, err := sys.Recover()
			if err != nil {
				t.Fatal(err)
			}
			verifyAckedWrites(t, rec, ino, acked, "recovery")
			if rep := rec.Fsck(); !rep.OK() {
				t.Fatalf("fsck after crash at %q: %s", want, rep)
			}
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			verifyAckedWrites(t, rec, ino, acked, "after quiesce")
			rec.Shutdown()
		})
	}
}

// TestTornWriteRecovery crashes mid-CP with always-tear fault injection, so
// in-flight multi-block writes land only a prefix on media. The committed
// image must be unaffected: CPs drain all I/O before the superblock commit,
// so torn blocks are never referenced by the mounted tree.
func TestTornWriteRecovery(t *testing.T) {
	cfg := crashConfig()
	cfg.Faults = FaultConfig{TornWriteEvery: 1, TornWritePrefix: -1}
	sys, ino := newCrashSystem(t, cfg)
	var acked []FBN
	attachTrackedWriter(sys, ino, &acked)
	crashTearing(t, sys)
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	verifyAckedWrites(t, rec, ino, acked, "recovery")
	if rep := rec.Fsck(); !rep.OK() {
		t.Fatalf("fsck after torn-write crash: %s", rep)
	}
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if rep := rec.Fsck(); !rep.OK() {
		t.Fatalf("fsck after quiesce: %s", rep)
	}
}

// crashTearing runs sys, halting at every CP phase boundary, and crashes it
// at the first one where a multi-block write is still in flight — the
// population the crash-time torn-write fault actually tears. Whether the
// first boundary qualifies depends on drive timing, so it probes until one
// does. It fails t unless the crash tore a write.
func crashTearing(t *testing.T, sys *System) {
	t.Helper()
	sys.SetCPPhaseHook(func(phase string) bool {
		sys.RequestHalt()
		return true
	})
	a := sys.m0().a
	inflight := func() int {
		n := 0
		for g := 0; g < a.Groups(); g++ {
			grp := a.Group(g)
			for d := 0; d < grp.DataDrives(); d++ {
				n += grp.Drive(d).InflightMultiBlock()
			}
			n += grp.ParityDrive().InflightMultiBlock()
		}
		return n
	}
	found := false
	for i := 0; i < 500; i++ {
		sys.Run(2 * Second)
		if !sys.Halted() {
			break // workload finished without a qualifying boundary
		}
		if inflight() > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no CP boundary had a multi-block write in flight")
	}
	sys.Crash()
	torn := uint64(0)
	for g := 0; g < a.Groups(); g++ {
		grp := a.Group(g)
		for d := 0; d < grp.DataDrives(); d++ {
			torn += grp.Drive(d).Stats().TornWrites
		}
		torn += grp.ParityDrive().Stats().TornWrites
	}
	if torn == 0 {
		t.Fatal("crash tore no writes; the fault plan did not engage")
	}
}

// TestPersistentReadErrorReconstructed installs a hard per-block read error
// on the OS read path and checks ReadVBNRaw repairs it from RAID parity.
func TestPersistentReadErrorReconstructed(t *testing.T) {
	cfg := crashConfig()
	// Enable injection (any arm) so the injector is wired; the transient
	// arms stay off — only the explicit FailBlock below fires.
	cfg.Faults = FaultConfig{TornWriteEvery: 1 << 30, TornWritePrefix: 0}
	sys, ino := newCrashSystem(t, cfg)
	sys.ClientThread("w", func(c *ClientCtx) {
		for i := 0; c.Alive() && i < 400; i++ {
			c.Write(0, ino, FBN(i*2%1024), 2)
		}
	})
	sys.Run(300 * Millisecond)
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Pick a committed data block outside the reserved stripe 0.
	geo := sys.m0().a.Geometry()
	var vbn block.VBN
	found := false
	for bn := uint64(0); bn < geo.TotalBlocks(); bn++ {
		_, _, dbn := geo.Locate(block.VBN(bn))
		if dbn == 0 {
			continue
		}
		if sys.m0().a.ReadVBNRaw(block.VBN(bn)) != nil {
			vbn, found = block.VBN(bn), true
			break
		}
	}
	if !found {
		t.Fatal("no committed block found")
	}
	want := append([]byte(nil), sys.m0().a.ReadVBNRaw(vbn)...)
	g, d, dbn := geo.Locate(vbn)
	drive := sys.m0().a.Group(g).Drive(d)
	sys.Injector().FailBlock(drive.Name(), dbn)
	got := sys.m0().a.ReadVBNRaw(vbn)
	if got == nil {
		t.Fatal("read not repaired")
	}
	if string(got) != string(want) {
		t.Fatal("reconstructed content differs from original")
	}
	if rs := sys.Stats().Repairs; rs.Reconstructs == 0 {
		t.Fatalf("no reconstruction recorded: %+v", rs)
	}
	// Fsck reads every block through the same path; it must stay clean
	// with the bad block still failing.
	if rep := sys.Fsck(); !rep.OK() {
		t.Fatalf("fsck with persistent read error: %s", rep)
	}
}

// TestTimedReadsReconstruct puts a persistent read error under committed
// user blocks that no cache holds and reads them as a client does: a Read
// that misses the buffer cache, and a SnapRead of a block only a snapshot
// holds. Both are media reads, which all pass the fault plan, so both come
// back as the original bytes, reconstructed from RAID parity.
func TestTimedReadsReconstruct(t *testing.T) {
	cfg := crashConfig()
	cfg.BCacheBlocks = 8
	// The injector wired as in TestPersistentReadErrorReconstructed: only
	// FailBlock fires.
	cfg.Faults = FaultConfig{TornWriteEvery: 1 << 30, TornWritePrefix: 0}
	sys, ino := newCrashSystem(t, cfg)
	defer sys.Shutdown()
	const fbn = 5
	m := sys.m0()
	v := m.a.Volume(0)
	f := v.LookupFile(ino)
	vbnOf := func() block.VBN {
		_, vbn, _ := f.Resolve(fbn, m.a)
		return vbn
	}
	fail := func(vbn block.VBN) {
		g, d, dbn := m.a.Geometry().Locate(vbn)
		sys.Injector().FailBlock(m.a.Group(g).Drive(d).Name(), dbn)
	}
	// run runs op on a client thread to completion.
	run := func(op func(c *ClientCtx)) {
		t.Helper()
		done := false
		sys.ClientThread("op", func(c *ClientCtx) {
			op(c)
			done = true
		})
		for i := 0; !done; i++ {
			if i == 1000 {
				t.Fatal("client op did not finish")
			}
			sys.Run(Millisecond)
		}
	}
	reconstructs := func() uint64 { return sys.Stats().Repairs.Reconstructs }

	var snapID uint64
	var snapVBN block.VBN
	run(func(c *ClientCtx) {
		c.Write(0, ino, fbn, 1)
		snapID = c.SnapCreate(0)
		snapVBN = vbnOf()
		c.WriteTag(0, ino, fbn, 1, 'x') // now the snapshot alone holds snapVBN
		c.Write(0, ino, 100, 32)        // and fbn leaves the 8-block cache
	})
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.bc.Contains(bcache.Key{Vol: 0, Ino: ino, FBN: fbn}) || snapVBN == vbnOf() {
		t.Fatal("the set-up left the block cached or the snapshot sharing it")
	}
	// read runs op, a client read, and one timed read of the block as a miss
	// takes it, which returns the block's bytes.
	read := func(what string, vbn block.VBN, want []byte, op func(c *ClientCtx), timed func(c *ClientCtx) []byte) {
		t.Helper()
		fail(vbn)
		before := reconstructs()
		run(op)
		if reconstructs() == before {
			t.Errorf("%s: no reconstruction recorded: the read skipped the fault plan", what)
		}
		var got []byte
		run(func(c *ClientCtx) { got = timed(c) })
		if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
			t.Errorf("%s: the timed read returned other bytes than the block's", what)
		}
	}
	read("client read", vbnOf(), sys.expected(ino, fbn, 'x'),
		func(c *ClientCtx) { c.Read(0, ino, fbn, 1) },
		func(c *ClientCtx) []byte { return v.ReadBlock(c.t, f, fbn).Expand() })
	read("snapshot read", snapVBN, sys.expected(ino, fbn, 0),
		func(c *ClientCtx) {
			if _, ok := c.SnapRead(0, snapID, ino, fbn, 1); !ok {
				t.Error("snapshot read found no block")
			}
		},
		func(c *ClientCtx) []byte {
			img, _ := v.SnapReadBlock(c.t, snapID, ino, fbn)
			return img.Expand()
		})
}

// TestDamagedImageIsAnError overwrites the committed root of volume 0's inode
// file with a never-written image: the superblock is intact, but the tree
// points at a block the media does not hold. Mounting that image is an
// error, which Fsck reports and Recover returns, not a panic.
func TestDamagedImageIsAnError(t *testing.T) {
	sys, _ := newCrashSystem(t, crashConfig())
	a := sys.m0().a
	root := a.Volume(0).InoFile().RootVBN
	g, d, dbn := a.Geometry().Locate(root)
	a.Group(g).Drive(d).Write([]storage.WriteReq{{DBN: dbn, Data: nil}}, nil)
	sys.Run(Millisecond)
	if a.ReadVBNRaw(root) != nil {
		t.Fatal("the damaging write has not landed")
	}
	want := fmt.Sprintf("aggregate: volume 0: metafile 1 block (level 2, index 0) at %v unreadable", root)
	if rep := sys.Fsck(); rep.OK() || len(rep.Errors) != 1 || rep.Errors[0] != want {
		t.Fatalf("fsck of the damaged image: %s %q, want the error %q", rep, rep.Errors, want)
	}
	sys.Crash()
	if _, err := sys.Recover(); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("recovery from the damaged image: %v, want an error ending %q", err, want)
	}
}

// TestSparseIndirectsSurviveRemount writes a few blocks into small files,
// whose L1s the media keeps trimmed, and mounts from that image: the
// recovered tree must read every block, and overwriting a block of each
// file (which installs its short L1 padded, then updates it in place) must
// leave a clean image that reads back the same after another remount.
func TestSparseIndirectsSurviveRemount(t *testing.T) {
	sys, _ := newCrashSystem(t, crashConfig())
	var inos []uint64
	for i := 0; i < 4; i++ {
		inos = append(inos, sys.CreateFileDirect(0, block.PtrsPerBlock))
	}
	fbns := []FBN{0, 5, 77}
	sys.ClientThread("w", func(c *ClientCtx) {
		for _, ino := range inos {
			for _, fbn := range fbns {
				c.Write(0, ino, fbn, 1)
			}
		}
	})
	sys.Run(50 * Millisecond)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	rootLen := func(sys *System, ino uint64) int {
		f := sys.m0().a.Volume(0).LookupFile(ino)
		if f.Height() != 1 {
			t.Fatalf("ino %d has height %d; want its root to be the L1", ino, f.Height())
		}
		return len(sys.m0().a.ReadVBNRaw(f.RootVBN))
	}
	if n := rootLen(sys, inos[0]); n >= block.Size {
		t.Fatalf("the L1 of a 3-block file is %d bytes on the media; want it trimmed", n)
	}
	check := func(sys *System, label string) {
		t.Helper()
		if rep := sys.Fsck(); !rep.OK() {
			t.Fatalf("%s: fsck: %s", label, rep)
		}
		for _, ino := range inos {
			for _, fbn := range fbns {
				if err := sys.VerifyAgainst(0, ino, fbn); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}

	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	check(rec, "after remount")

	fbns = append(fbns, 20)
	rec.ClientThread("w2", func(c *ClientCtx) {
		for _, ino := range inos {
			c.Write(0, ino, 5, 1)
			c.Write(0, ino, 20, 1)
		}
	})
	rec.Run(50 * Millisecond)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := rootLen(rec, inos[0]); n >= block.Size {
		t.Fatalf("the rewritten L1 is %d bytes on the media; want it trimmed", n)
	}
	check(rec, "after overwriting through the padded L1")
	rec.Crash()
	rec2, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	check(rec2, "after a second remount")
}

// TestContainerBlocksSurviveRecover: a container-map block is a 2 KiB image
// (512 32-bit PVBNs). Through a crash mid-run and recovery, every container
// L0 of the recovered system is again a 2 KiB array, no block on the media
// is longer, the acknowledged writes read back and fsck is clean; and so
// after the recovered system's own CPs rewrite them.
func TestContainerBlocksSurviveRecover(t *testing.T) {
	const l0Len = aggregate.ContainerEntriesPerBlock * block.AddrSize
	sys, ino := newCrashSystem(t, crashConfig())
	var acked []FBN
	attachTrackedWriter(sys, ino, &acked)
	sys.Run(150 * Millisecond)
	check := func(sys *System, label string) {
		t.Helper()
		a := sys.m0().a
		blocks := 0
		for _, v := range a.Volumes() {
			f := v.ContainerFile()
			for fbn := range f.Size() {
				b := f.Buffer(0, fbn)
				if b == nil {
					continue
				}
				blocks++
				if d := b.Data(); len(d) != l0Len || cap(d) != l0Len {
					t.Fatalf("%s: vol %d container block %d is %d bytes (capacity %d); want %d", label, v.ID(), fbn, len(d), cap(d), l0Len)
				}
				if n := len(a.ReadVBNRaw(b.VBN())); b.VBN() != block.InvalidVBN && n > l0Len {
					t.Fatalf("%s: vol %d container block %d is %d bytes on the media; want at most %d", label, v.ID(), fbn, n, l0Len)
				}
			}
		}
		if blocks == 0 {
			t.Fatalf("%s: no container block", label)
		}
		if rep := sys.Fsck(); !rep.OK() {
			t.Fatalf("%s: fsck: %s", label, rep)
		}
		verifyAckedWrites(t, sys, ino, acked, label)
	}

	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	check(rec, "after recovery")
	attachTrackedWriter(rec, ino, &acked)
	rec.Run(100 * Millisecond)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	check(rec, "after the recovered system's CPs")
}

// TestTrimmedImagesReconstructed runs the default 64-byte payload, so user
// data, sparse metafile blocks and most parity sit on the media as
// length-trimmed images, then makes every trimmed data block unreadable: a
// freshly mounted system must load the metafiles and serve the user blocks
// through XOR reconstruction, content intact and fsck clean.
func TestTrimmedImagesReconstructed(t *testing.T) {
	cfg := crashConfig()
	cfg.PayloadBytes = DefaultConfig().PayloadBytes
	cfg.Faults = FaultConfig{TornWriteEvery: 1 << 30, TornWritePrefix: 0} // wires the injector; never fires
	sys, ino := newCrashSystem(t, cfg)
	const nblocks = 800
	sys.ClientThread("w", func(c *ClientCtx) {
		for fbn := FBN(0); c.Alive() && fbn < nblocks; fbn += 2 {
			c.Write(0, ino, fbn, 2)
		}
	})
	sys.Run(300 * Millisecond)
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	a := sys.m0().a
	// The VBNs of the metafile L0s, all resident.
	meta := map[block.VBN]bool{}
	metafiles := []*fs.File{a.AmapFile(), a.VolTableFile()}
	for _, v := range a.Volumes() {
		metafiles = append(metafiles, v.Metafiles()...)
	}
	for _, f := range metafiles {
		for fbn := FBN(0); fbn < f.Size(); fbn++ {
			if b := f.Buffer(0, fbn); b != nil {
				meta[b.VBN()] = true
			}
		}
	}
	failed, failedMeta := 0, 0
	for g := 0; g < cfg.RAIDGroups; g++ {
		for d := 0; d < cfg.DataDrives; d++ {
			drive := a.Group(g).Drive(d)
			for dbn := block.DBN(1); dbn < drive.Blocks(); dbn++ {
				if img := drive.Image(dbn).Expand(); img != nil && len(img) < block.Size {
					sys.Injector().FailBlock(drive.Name(), dbn)
					failed++
					if meta[a.Geometry().VBNOf(g, d, dbn)] {
						failedMeta++
					}
				}
			}
		}
	}
	t.Logf("%d trimmed images failed, %d of them metafile blocks", failed, failedMeta)
	if failed-failedMeta < nblocks || failedMeta == 0 {
		t.Fatalf("%d trimmed images on the media, %d of them metafile blocks; want at least the file's %d blocks and some metafile blocks",
			failed, failedMeta, nblocks)
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for fbn := FBN(0); fbn < nblocks; fbn++ {
		if err := rec.VerifyAgainst(0, ino, fbn); err != nil {
			t.Fatal(err)
		}
	}
	if rs := rec.Stats().Repairs; rs.Reconstructs < uint64(nblocks+failedMeta) {
		t.Fatalf("%d reconstructions for %d unreadable user and %d metafile blocks", rs.Reconstructs, nblocks, failedMeta)
	}
	if rep := rec.Fsck(); !rep.OK() {
		t.Fatalf("fsck over reconstructed trimmed images: %s", rep)
	}
}

// TestUsedBlocksReconstruct: once quiesced, every used block outside the
// reserved stripe 0 reconstructs from the rest of its stripe — the other data
// drives' images and the parity row the media hands back — to exactly its own
// image, with trimmed and full payloads, and again after a crash that tore
// every write in flight, its recovery and a quiesce.
func TestUsedBlocksReconstruct(t *testing.T) {
	check := func(t *testing.T, sys *System, when string) {
		t.Helper()
		a := sys.m0().a
		geo := a.Geometry()
		checked := 0
		for bn := uint64(0); bn < geo.TotalBlocks(); bn++ {
			g, d, dbn := geo.Locate(block.VBN(bn))
			if dbn == 0 || !a.Activemap.IsSet(bn) {
				continue
			}
			checked++
			if img, got := a.Group(g).Drive(d).Image(dbn).Expand(), a.Group(g).ReconstructBlock(d, dbn); !block.Equal(got, img) {
				t.Fatalf("%s: vbn %d reconstructs to %d trimmed bytes unlike its %d-byte image", when, bn, len(block.Trim(got)), len(block.Trim(img)))
			}
		}
		t.Logf("%s: %d used blocks reconstruct", when, checked)
		if checked == 0 {
			t.Fatalf("%s: no used block to reconstruct", when)
		}
	}
	for _, payload := range []int{64, block.Size} {
		t.Run(fmt.Sprint(payload), func(t *testing.T) {
			start := func() *System {
				cfg := smallConfig()
				cfg.PayloadBytes = payload
				cfg.Faults = FaultConfig{TornWriteEvery: 1, TornWritePrefix: -1}
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				const span = 4096
				inos := make([]uint64, cfg.Volumes)
				for vol := range inos {
					inos[vol] = sys.CreateFileDirect(vol, span)
				}
				if err := sys.Flush(); err != nil {
					t.Fatal(err)
				}
				for vol, ino := range inos {
					sys.ClientThread(fmt.Sprint("w", vol), func(c *ClientCtx) {
						for c.Alive() {
							c.Write(vol, ino, FBN(c.Rand(span)), 2)
						}
					})
				}
				sys.Run(100 * Millisecond)
				return sys
			}
			sys := start()
			if err := sys.Quiesce(); err != nil {
				t.Fatal(err)
			}
			check(t, sys, "quiesced")
			sys.Shutdown()

			sys = start()
			crashTearing(t, sys)
			rec, err := sys.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			check(t, rec, "recovered from a torn crash")
			rec.Shutdown()
		})
	}
}

// holdsName reports whether img is name n, with no bytes.
func holdsName(img block.Image, n block.Name) bool { return img.Name == n && img.Bytes == nil }

// TestLoggedPayloadIsTheBufferImage: a write's NVLog record and its
// slot's live image hold one name by value, and no array: the CP writes
// that name, the media holds it once the commit drops the slot's word, and
// a verification read expands it to the payload's bytes. The replay that
// reapplies the record after a crash gives the slot the record's name
// (DESIGN §14).
func TestLoggedPayloadIsTheBufferImage(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	write := func(sys *System, fbn FBN, tag byte) {
		t.Helper()
		done := false
		sys.ClientThread("w", func(c *ClientCtx) {
			c.WriteTag(0, ino, fbn, 1, tag)
			done = true
		})
		sys.Run(Millisecond)
		if !done {
			t.Fatalf("write of fbn %d not acknowledged", fbn)
		}
	}
	logged := func(sys *System, fbn FBN) nvlog.Record {
		t.Helper()
		for _, r := range sys.m0().log.Replay() {
			if r.Kind == nvlog.OpWrite && r.FBN == fbn {
				return r
			}
		}
		t.Fatalf("no logged write of fbn %d", fbn)
		return nvlog.Record{}
	}
	slot := func(sys *System, fbn FBN) block.Image {
		img, _ := sys.m0().a.Volume(0).LookupFile(ino).L0(fbn)
		return img
	}

	write(sys, 5, 1)
	r := logged(sys, 5)
	if r.Data != nil || r.Name != sys.payload(ino, 5, 1) || !holdsName(slot(sys, 5), r.Name) {
		t.Fatal("the record and the slot do not hold the payload's name alone")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	// The committed block's word has left its slot: the media holds the
	// name, and a verification read expands it.
	_, vbn, _ := sys.m0().a.Volume(0).LookupFile(ino).Resolve(5, sys.m0().a)
	if !slot(sys, 5).IsNil() || !holdsName(sys.m0().a.ReadImage(vbn), r.Name) ||
		!bytes.Equal(sys.VerifyRead(0, ino, 5), sys.expected(ino, 5, 1)) {
		t.Fatal("the media does not hold the logged name, or it reads other bytes")
	}

	write(sys, 9, 2)
	r = logged(sys, 9)
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if replayed := logged(rec, 9); replayed.Name != r.Name || !holdsName(slot(rec, 9), r.Name) ||
		!bytes.Equal(rec.VerifyRead(0, ino, 9), sys.expected(ino, 9, 2)) {
		t.Fatal("the replayed record and slot do not hold the logged name")
	}
}

// TestPostCommitReplayCopiesMarkedPayloads: a crash at the post-commit
// boundary — after the commit dropped the cleaned L0s' buffers
// (fs.File.DropClean), before the log half that logged them was freed —
// replays records whose names the committed blocks hold. Replay copies the
// value: the audit (Quiesce) passes right after recovery, and once the
// replayed blocks are overwritten and their old homes forgotten, every read
// still returns the payload.
func TestPostCommitReplayCopiesMarkedPayloads(t *testing.T) {
	sys, ino := newCrashSystem(t, crashConfig())
	const n = 16
	sys.ClientThread("w", func(c *ClientCtx) {
		c.Write(0, ino, 0, n)
		sys.ForceCP()
	})
	sys.SetCPPhaseHook(func(phase string) bool {
		if phase == "post-commit" {
			sys.RequestHalt()
		}
		return phase == "post-commit"
	})
	sys.Run(Second)
	recs := sys.m0().log.Replay()
	if !sys.Halted() || len(recs) != n {
		t.Fatalf("halted=%v with %d records in NVRAM; want the post-commit boundary with %d", sys.Halted(), len(recs), n)
	}
	a := sys.m0().a
	f := a.Volume(0).LookupFile(ino)
	for _, r := range recs {
		_, vbn, _ := f.Resolve(r.FBN, a)
		g, d, dbn := a.Geometry().Locate(vbn)
		if drv := a.Group(g).Drive(d); !holdsName(drv.Image(dbn), r.Name) || drv.MediaOnly(dbn) {
			t.Fatalf("fbn %d: the logged name is not its committed block's unmarked image", r.FBN)
		}
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	check := func(label string) {
		t.Helper()
		for fbn := FBN(0); fbn < n; fbn++ {
			if err := rec.VerifyAgainst(0, ino, fbn); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		if err := rec.Quiesce(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	check("recovered")
	done := false
	rec.ClientThread("w", func(c *ClientCtx) {
		c.Write(0, ino, 0, n)
		done = true
	})
	rec.Run(10 * Millisecond)
	for range 2 {
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("the overwrite was not acknowledged")
	}
	check("overwritten and flushed twice")
}

// TestLogOnlyPayloadsWaitForFreeFrozen: a client overwrites each of n
// blocks twice in one generation, so each first payload is held by its
// NVLog record alone. At the post-commit boundary — after the commit's
// ForgetFreed and Trim, before FreeFrozen — the frozen half's records
// still hold every name, so a crash there replays them all and recovers
// the second writes; once FreeFrozen has run the log is empty, and the
// media holds the second names.
func TestLogOnlyPayloadsWaitForFreeFrozen(t *testing.T) {
	for _, crash := range []bool{false, true} {
		sys, ino := newCrashSystem(t, crashConfig())
		const n = 16
		sys.ClientThread("w", func(c *ClientCtx) {
			c.WriteTag(0, ino, 0, n, 1)
			c.WriteTag(0, ino, 0, n, 2)
			sys.ForceCP()
		})
		halted := false
		sys.SetCPPhaseHook(func(phase string) bool {
			if phase == "post-commit" && !halted {
				halted = true
				sys.RequestHalt()
				return true
			}
			return false
		})
		sys.Run(Second)
		recs := sys.m0().log.Replay()
		if !sys.Halted() || len(recs) != 2*n {
			t.Fatalf("halted=%v with %d records in NVRAM; want the post-commit boundary with %d", sys.Halted(), len(recs), 2*n)
		}
		for i, r := range recs {
			if tag := byte(1 + i/n); r.Name != sys.payload(ino, r.FBN, tag) {
				t.Fatalf("record %d (fbn %d, tag %d) does not hold its payload at the post-commit boundary", i, r.FBN, tag)
			}
		}
		if crash {
			sys.Crash()
			rec, err := sys.Recover()
			if err != nil {
				t.Fatal(err)
			}
			for fbn := FBN(0); fbn < n; fbn++ {
				if !bytes.Equal(rec.VerifyRead(0, ino, fbn), sys.expected(ino, fbn, 2)) {
					t.Fatalf("fbn %d after the post-commit crash: not the second write's payload", fbn)
				}
			}
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			rec.Shutdown()
			continue
		}
		sys.Run(Second)
		if left := sys.m0().log.Replay(); len(left) != 0 {
			t.Fatalf("%d records left after FreeFrozen", len(left))
		}
		for fbn := FBN(0); fbn < n; fbn++ {
			if !bytes.Equal(sys.VerifyRead(0, ino, fbn), sys.expected(ino, fbn, 2)) {
				t.Fatalf("fbn %d after FreeFrozen: not the second write's payload", fbn)
			}
		}
		if err := sys.Quiesce(); err != nil {
			t.Fatal(err)
		}
		sys.Shutdown()
	}
}

// TestReplayedNamesExpandExactly: with full-block payloads (PayloadBytes
// 4096) a crash at a CP's commit loses every buffer and leaves a clone
// split and the parent's and the clone's latest writes in NVRAM alone. Recovery replays their names, and
// every block of both volumes then reads, byte for byte and at full length,
// the expansion of the name its last acknowledged write carried — the
// replayed ones, the committed ones and the parent blocks the clone still
// shares — and again once the split has copied every shared block by value.
func TestReplayedNamesExpandExactly(t *testing.T) {
	sys, ino := newCrashSystem(t, cloneConfig())
	const n = 48
	run := func(sys *System, name string, d Duration, fn func(c *ClientCtx)) {
		t.Helper()
		done := false
		sys.ClientThread(name, func(c *ClientCtx) {
			fn(c)
			done = true
		})
		sys.Run(d)
		if !done {
			t.Fatalf("%s did not finish", name)
		}
	}
	var cloneVol int
	run(sys, "setup", 2*Second, func(c *ClientCtx) {
		c.WriteTag(0, ino, 0, n, 'A')
		snap := c.SnapCreate(0)
		var ok bool
		if cloneVol, ok = c.CloneCreate(0, snap); !ok {
			t.Error("clone create failed")
		}
	})
	// The parent overwrites its first half, the clone diverges on every
	// third block and the split starts; the crash comes at the commit of the
	// CP that copies the split's blocks, so it and the writes live in NVRAM
	// alone.
	halted := false
	sys.SetCPPhaseHook(func(phase string) bool {
		if phase != "commit" || halted {
			return false
		}
		halted = true
		sys.RequestHalt()
		return true
	})
	run(sys, "diverge", Second, func(c *ClientCtx) {
		c.WriteTag(0, ino, 0, n/2, 'B')
		for fbn := FBN(0); fbn < n; fbn += 3 {
			c.WriteTag(cloneVol, ino, fbn, 1, 'C')
		}
		if !c.CloneSplit(cloneVol) {
			t.Error("CloneSplit refused")
		}
	})
	if !halted {
		t.Fatal("no CP reached its commit")
	}
	if recs := len(sys.m0().log.Replay()); recs == 0 || sys.CloneSplitDone(cloneVol) {
		t.Fatalf("%d records in NVRAM, split done %v: want the crash with writes in NVRAM and the split under way", recs, sys.CloneSplitDone(cloneVol))
	}
	check := func(sys *System, label string) {
		t.Helper()
		for fbn := FBN(0); fbn < n; fbn++ {
			parent, clone := byte('A'), byte('A')
			if fbn < n/2 {
				parent = 'B'
			}
			if fbn%3 == 0 {
				clone = 'C'
			}
			for _, c := range []struct {
				vol int
				tag byte
			}{{0, parent}, {cloneVol, clone}} {
				got, want := sys.VerifyRead(c.vol, ino, fbn), sys.expected(ino, fbn, c.tag)
				if len(want) != block.Size || !bytes.Equal(got, want) {
					t.Fatalf("%s: vol %d fbn %d reads %d bytes unlike the %d of its name (tag %q)", label, c.vol, fbn, len(got), len(want), c.tag)
				}
			}
		}
	}
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	check(rec, "recovered")
	for i := 0; i < 50 && !rec.CloneSplitDone(cloneVol); i++ {
		rec.ForceCP()
		rec.Run(500 * Millisecond)
	}
	if !rec.CloneSplitDone(cloneVol) {
		t.Fatal("the split did not complete after recovery")
	}
	check(rec, "split")
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
}
