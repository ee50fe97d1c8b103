package wafl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

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
	// Halt at every CP phase boundary and crash at the first one where a
	// multi-block write is still in flight — the population the crash-time
	// torn-write fault actually tears. Whether the first boundary qualifies
	// depends on drive timing, so probe until one does.
	sys.SetCPPhaseHook(func(phase string) bool {
		sys.RequestHalt()
		return true
	})
	inflight := func() int {
		n := 0
		for g := 0; g < sys.m0().a.Groups(); g++ {
			grp := sys.m0().a.Group(g)
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
	for g := 0; g < sys.m0().a.Groups(); g++ {
		grp := sys.m0().a.Group(g)
		for d := 0; d < grp.DataDrives(); d++ {
			torn += grp.Drive(d).Stats().TornWrites
		}
		torn += grp.ParityDrive().Stats().TornWrites
	}
	if torn == 0 {
		t.Fatal("crash tore no writes; the fault plan did not engage")
	}
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
				if img := drive.Peek(dbn); img != nil && len(img) < block.Size {
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

// TestLoggedPayloadIsTheBufferImage: with full-block payloads a write's NVLog
// record and its buffer's live image are one array, and nothing writes into
// it — not the CP that cleans the block (after which the media holds it too),
// not the replay that reapplies the record after a crash.
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
	logged := func(sys *System, fbn FBN) []byte {
		t.Helper()
		for _, r := range sys.m0().log.Replay() {
			if r.Kind == nvlog.OpWrite && r.FBN == fbn {
				return r.Data
			}
		}
		t.Fatalf("no logged write of fbn %d", fbn)
		return nil
	}
	buffer := func(sys *System, fbn FBN) *fs.Buffer {
		return sys.m0().a.Volume(0).LookupFile(ino).Buffer(0, fbn)
	}

	write(sys, 5, 1)
	data := logged(sys, 5)
	if len(data) != block.Size || &buffer(sys, 5).Data()[0] != &data[0] {
		t.Fatal("the buffer's live image is not the logged payload's array")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buffer(sys, 5)
	if &b.Data()[0] != &data[0] || &sys.m0().a.ReadVBNRaw(b.VBN())[0] != &data[0] ||
		!bytes.Equal(data, sys.payload(ino, 5, 1)) {
		t.Fatal("the CP copied the logged payload or wrote into it")
	}

	write(sys, 9, 2)
	data = logged(sys, 9)
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if &logged(rec, 9)[0] != &data[0] || &buffer(rec, 9).Data()[0] != &data[0] ||
		!bytes.Equal(data, sys.payload(ino, 9, 2)) {
		t.Fatal("replay copied the logged payload or wrote into it")
	}
}
