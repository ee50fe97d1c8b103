package aggregate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/clone"
	"wafl/internal/fs"
	"wafl/internal/sim"
	"wafl/internal/storage"
)

var testGeo = Geometry{NumGroups: 2, DataDrives: 3, Depth: 8192, AAStripes: 1024}

func newTestAggr(t testing.TB) (*sim.Scheduler, *Aggregate) {
	t.Helper()
	s := sim.New(4, 1)
	a, err := New(s, Config{Geometry: testGeo, Profile: storage.SSD})
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func TestGeometryRoundTrip(t *testing.T) {
	fn := func(v uint32) bool {
		vbn := block.VBN(uint64(v) % testGeo.TotalBlocks())
		g, d, dbn := testGeo.Locate(vbn)
		return testGeo.VBNOf(g, d, dbn) == vbn
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryAAMath(t *testing.T) {
	if testGeo.AAsPerGroup() != 8 {
		t.Fatalf("AAs per group = %d", testGeo.AAsPerGroup())
	}
	s, e := testGeo.AARange(2)
	if s != 2048 || e != 3072 {
		t.Fatalf("AARange = [%d,%d)", s, e)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := Geometry{NumGroups: 1, DataDrives: 2, Depth: 1000, AAStripes: 512}
	if bad.Validate() == nil {
		t.Fatal("depth not multiple of AA stripes must fail")
	}
	if (Geometry{NumGroups: 1, DataDrives: 2, Depth: 960, AAStripes: 96}).Validate() == nil {
		t.Fatal("AA stripes not a multiple of 64 must fail: a free-space index region is whole words")
	}
	if (Geometry{}).Validate() == nil {
		t.Fatal("zero geometry must fail")
	}
	if testGeo.Validate() != nil {
		t.Fatal("test geometry should validate")
	}
}

func TestFormatReservesSuperblockStripe(t *testing.T) {
	_, a := newTestAggr(t)
	for gi := 0; gi < testGeo.NumGroups; gi++ {
		for di := 0; di < testGeo.DataDrives; di++ {
			if !a.Activemap.IsSet(uint64(testGeo.VBNOf(gi, di, 0))) {
				t.Fatalf("dbn 0 of (%d,%d) not reserved", gi, di)
			}
		}
	}
	wantFree := testGeo.TotalBlocks() - uint64(testGeo.NumGroups*testGeo.DataDrives)
	if a.TotalFree() != wantFree {
		t.Fatalf("free = %d, want %d", a.TotalFree(), wantFree)
	}
}

func TestAAFreeTracking(t *testing.T) {
	_, a := newTestAggr(t)
	per := int64(testGeo.DataDrives) * int64(testGeo.AAStripes)
	// AA 0 of each group lost the reserved stripe-0 blocks.
	if a.AAFree(0, 0) != per-3 || a.AAFree(1, 0) != per-3 {
		t.Fatalf("AA0 free = %d,%d", a.AAFree(0, 0), a.AAFree(1, 0))
	}
	vbn := uint64(testGeo.VBNOf(0, 1, 2048)) // group 0, AA 2
	a.Activemap.Set(vbn)
	if a.AAFree(0, 2) != per-1 {
		t.Fatalf("AA2 free = %d", a.AAFree(0, 2))
	}
	a.Activemap.Clear(vbn)
	if a.AAFree(0, 2) != per {
		t.Fatalf("AA2 free after clear = %d", a.AAFree(0, 2))
	}
}

func TestAAFreeMatchesBitmapRecount(t *testing.T) {
	_, a := newTestAggr(t)
	rng := a.Sched().Rand()
	for i := 0; i < 5000; i++ {
		bn := uint64(rng.Int63n(int64(testGeo.TotalBlocks())))
		if a.Activemap.IsSet(bn) {
			continue
		}
		a.Activemap.Set(bn)
	}
	for gi := 0; gi < testGeo.NumGroups; gi++ {
		for aa := 0; aa < testGeo.AAsPerGroup(); aa++ {
			s, e := testGeo.AARange(aa)
			var want int64
			for di := 0; di < testGeo.DataDrives; di++ {
				lo := uint64(testGeo.VBNOf(gi, di, s))
				hi := uint64(testGeo.VBNOf(gi, di, e-1)) + 1
				n := a.Activemap.CountFreeNotIn(nil, lo, hi)
				want += int64(n)
			}
			if got := a.AAFree(gi, aa); got != want {
				t.Fatalf("aaFree[%d][%d] = %d, recount = %d", gi, aa, got, want)
			}
		}
	}
}

func TestVolumeCreateAndContainer(t *testing.T) {
	_, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	f := v.CreateFile(1 << 12)
	if f.Ino() != FirstUserIno {
		t.Fatalf("first ino = %d", f.Ino())
	}
	g := v.CreateFile(100)
	if g.Ino() != FirstUserIno+1 || g.Height() != 1 {
		t.Fatalf("second file ino=%d height=%d", g.Ino(), g.Height())
	}
	v.SetContainer(700, 12345)
	if got := v.Container(700); got != 12345 {
		t.Fatalf("container = %v", got)
	}
	if got := v.Container(701); got != 0 {
		t.Fatalf("unset container = %v", got)
	}
}

// TestContainerEntryFormat: a container-map entry is a 32-bit PVBN, 512 to
// a block whose image is half a block. 0, the largest real address and
// InvalidVBN round-trip through SetContainer and Container, each entry at
// bytes 4i of its block, the sentinel as 0xFFFFFFFF.
func TestContainerEntryFormat(t *testing.T) {
	if ContainerEntriesPerBlock != 512 || containerL0Len != block.Size/2 {
		t.Fatalf("a container block is %d entries in %d bytes; want 512 in half a block", ContainerEntriesPerBlock, containerL0Len)
	}
	_, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	want := setContainers(v)
	for vvbn, pvbn := range want {
		if got := v.Container(vvbn); got != pvbn {
			t.Errorf("container entry of %v = %v; want %v", vvbn, got, pvbn)
		}
		d := v.ContainerFile().Buffer(0, block.FBN(vvbn/ContainerEntriesPerBlock)).Data()
		if len(d) != containerL0Len || cap(d) != containerL0Len {
			t.Fatalf("container block of %v is %d bytes (capacity %d); want %d", vvbn, len(d), cap(d), containerL0Len)
		}
		if got := binary.LittleEndian.Uint32(d[vvbn%ContainerEntriesPerBlock*block.AddrSize:]); got != uint32(pvbn) {
			t.Errorf("container entry of %v holds %#x; want %#x", vvbn, got, uint32(pvbn))
		}
	}
}

// setContainers sets container entries covering the format's corners in v,
// a volume of at least 2^16 VVBNs, and returns them: 0, the largest real
// address and InvalidVBN in a sparse block, each over an earlier entry, and
// a block with every entry set, which is dense.
func setContainers(v *Volume) map[block.VVBN]block.VBN {
	want := map[block.VVBN]block.VBN{0: block.AddrLimit - 1, 1: 0, 511: block.InvalidVBN, 1<<16 - 1: 12345}
	for vvbn := range want {
		v.SetContainer(vvbn, 99)
	}
	for i := range block.VVBN(ContainerEntriesPerBlock) {
		want[2*ContainerEntriesPerBlock+i] = block.VBN(1000 + i)
	}
	for vvbn, pvbn := range want {
		v.SetContainer(vvbn, pvbn)
	}
	return want
}

// checkContainerL0s fails unless every container L0 buffer of v holds an
// array of the container's L0 length exactly.
func checkContainerL0s(t *testing.T, v *Volume, label string) {
	t.Helper()
	f := v.ContainerFile()
	for fbn := range f.Size() {
		if b := f.Buffer(0, fbn); b != nil && (len(b.Data()) != containerL0Len || cap(b.Data()) != containerL0Len) {
			t.Fatalf("%s: container block %d is %d bytes (capacity %d); want %d", label, fbn, len(b.Data()), cap(b.Data()), containerL0Len)
		}
	}
}

// testCheckpoint is a miniature, single-threaded consistency point used to
// exercise persistence and mount before the real CP engine exists: it
// allocates VBNs with a forward cursor, writes CP images directly to the
// drives (synchronously, bypassing tetris batching), and skips frees
// (leaking old blocks, which mount does not care about).
type testCheckpoint struct {
	t      testing.TB
	s      *sim.Scheduler
	a      *Aggregate
	cursor uint64
	err    string
	meta   []block.VBN // the metafile blocks written, in order
}

// findVBN returns the next free VBN at the cursor without claiming it.
func (c *testCheckpoint) findVBN() block.VBN {
	for {
		c.cursor++
		if c.cursor >= c.a.geo.TotalBlocks() {
			c.err = "test checkpoint out of space"
			return block.InvalidVBN
		}
		if !c.a.Activemap.IsSet(c.cursor) {
			return block.VBN(c.cursor)
		}
	}
}

func (c *testCheckpoint) allocVBN() block.VBN {
	vbn := c.findVBN()
	if vbn != block.InvalidVBN {
		c.a.Activemap.Set(uint64(vbn))
	}
	return vbn
}

func (c *testCheckpoint) writeVBN(th *sim.Thread, vbn block.VBN, data []byte) {
	g, d, dbn := c.a.geo.Locate(vbn)
	c.a.Group(g).Drive(d).WriteSync(th, []storage.WriteReq{{DBN: dbn, Data: data}})
}

func (c *testCheckpoint) cleanFile(th *sim.Thread, f *fs.File, dual bool, v *Volume) {
	// assign gives the next block a VBN, and a VVBN for a dual file.
	assign := func() (block.VVBN, block.VBN) {
		vvbn := block.InvalidVVBN
		if dual && v != nil {
			// Allocate a VVBN with a simple cursor too.
			for bn := uint64(1); ; bn++ {
				if !v.Activemap.IsSet(bn) {
					v.Activemap.Set(bn)
					vvbn = block.VVBN(bn)
					break
				}
			}
		}
		return vvbn, c.allocVBN()
	}
	// written lands the image cleaned at (vvbn, vbn).
	written := func(vvbn block.VVBN, vbn block.VBN, img block.Image) {
		c.writeVBN(th, vbn, img.Bytes)
		if !dual {
			c.meta = append(c.meta, vbn)
		}
		if dual && v != nil {
			v.SetContainer(vvbn, vbn)
		}
	}
	all := block.FBN(f.MaxBlocks())
	for round := 0; round < 50 && f.FrozenCount() > 0; round++ {
		for level := 0; level <= f.Height(); level++ {
			for idx, b, ok := f.NextFrozen(level, 0, all); ok; idx, b, ok = f.NextFrozen(level, idx+1, all) {
				vvbn, vbn := assign()
				var img block.Image
				if b == nil {
					img, _, _ = f.CleanL0(idx, vvbn, vbn)
				} else {
					img, _, _, _ = f.CleanChild(b, vvbn, vbn)
				}
				written(vvbn, vbn, img)
			}
		}
	}
	if f.FrozenCount() > 0 {
		c.err = fmt.Sprintf("file %d did not converge", f.Ino())
	}
}

// run performs the full mini-CP on the calling sim thread.
func (c *testCheckpoint) run(th *sim.Thread) {
	a := c.a
	for _, v := range a.Volumes() {
		files := v.FreezeAll(nil)
		for _, f := range files {
			c.cleanFile(th, f, true, v)
			v.WriteRecord(f)
		}
		for _, mf := range v.Metafiles() {
			c.cleanFile(th, mf, false, nil)
		}
	}
	a.WriteVolumeEntries()
	c.cleanFile(th, a.VolTableFile(), false, nil)
	// The activemap is self-referential: use the flush planner.
	writes := a.PlanAmapFlush(c.findVBN)
	for _, w := range writes {
		c.writeVBN(th, w.VBN, w.Data)
		c.meta = append(c.meta, w.VBN)
	}
	a.SetCPCount(a.CPCount() + 1)
	a.WriteSuperblock(th)
}

// check fails the test if the mini-CP recorded an error.
func (c *testCheckpoint) check() {
	c.t.Helper()
	if c.err != "" {
		c.t.Fatal(c.err)
	}
}

func pattern(tag byte) []byte {
	b := make([]byte, block.Size)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}

func TestCheckpointMountRoundTrip(t *testing.T) {
	s, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	f := v.CreateFile(1 << 12)
	f.WriteBlock(0, pattern(1))
	f.WriteBlock(5, pattern(2))
	f.WriteBlock(300, pattern(3))
	v.MarkDirty(f)
	empty := v.CreateFile(100) // created, never written: record must persist

	cp := &testCheckpoint{t: t, s: s, a: a}
	s.Go("cp", sim.CatCP, func(th *sim.Thread) { cp.run(th) })
	s.Run(sim.Time(10 * sim.Second))
	cp.check()

	// Crash: drop all volatile state, remount from media.
	a.CrashAll()
	m, err := MountFrom(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.CPCount() != 1 {
		t.Fatalf("cp count = %d", m.CPCount())
	}
	mv := m.Volume(0)
	if mv.VVBNBlocks() != 1<<16 || mv.NextIno() != FirstUserIno+2 {
		t.Fatalf("volume fields: vvbn=%d nextIno=%d", mv.VVBNBlocks(), mv.NextIno())
	}
	mf := mv.LookupFile(f.Ino())
	if mf == nil {
		t.Fatal("file lost")
	}
	for fbn, want := range map[block.FBN][]byte{0: pattern(1), 5: pattern(2), 300: pattern(3)} {
		got := mv.ReadBlock(nil, mf, fbn)
		if !bytes.Equal(got.Bytes, want) {
			t.Fatalf("fbn %d content mismatch after mount", fbn)
		}
	}
	if !mv.ReadBlock(nil, mf, 7).IsNil() {
		t.Fatal("hole should read nil")
	}
	me := mv.LookupFile(empty.Ino())
	if me == nil {
		t.Fatal("empty created file's record lost")
	}
	if mv.LookupFile(999) != nil {
		t.Fatal("nonexistent ino should return nil")
	}
	// Container map must agree with the file's pointers.
	vvbn0, vbn0, ok := mf.Resolve(0, m)
	if !ok || mv.Container(vvbn0) != vbn0 {
		t.Fatal("container map inconsistent with file pointer")
	}
}

// TestContainerSurvivesMount: the container map's entries, sparse and
// dense blocks alike, read the same after a checkpoint and a mount, and the
// mounted container file's L0s are again arrays of its L0 length.
func TestContainerSurvivesMount(t *testing.T) {
	s, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	want := setContainers(v)
	cp := &testCheckpoint{t: t, s: s, a: a}
	s.Go("cp", sim.CatCP, func(th *sim.Thread) { cp.run(th) })
	s.Run(sim.Time(10 * sim.Second))
	cp.check()
	dense := v.ContainerFile().Buffer(0, 2).VBN()
	if n := len(a.ReadVBNRaw(dense)); n != containerL0Len {
		t.Fatalf("a dense container block is %d bytes on the media; want %d", n, containerL0Len)
	}

	a.CrashAll()
	m, err := MountFrom(a)
	if err != nil {
		t.Fatal(err)
	}
	mv := m.Volume(0)
	checkContainerL0s(t, mv, "after mount")
	for vvbn, pvbn := range want {
		if got := mv.Container(vvbn); got != pvbn {
			t.Errorf("container entry of %v = %v after mount; want %v", vvbn, got, pvbn)
		}
	}
}

func TestMountPreservesBitmapState(t *testing.T) {
	s, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	f := v.CreateFile(1000)
	for fbn := block.FBN(0); fbn < 50; fbn++ {
		f.WriteBlock(fbn, pattern(byte(fbn)))
	}
	v.MarkDirty(f)
	cp := &testCheckpoint{t: t, s: s, a: a}
	s.Go("cp", sim.CatCP, func(th *sim.Thread) { cp.run(th) })
	s.Run(sim.Time(10 * sim.Second))
	cp.check()
	usedBefore := a.Activemap.Used()

	a.CrashAll()
	m, err := MountFrom(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Activemap.Used() != usedBefore {
		t.Fatalf("used blocks %d != %d after mount", m.Activemap.Used(), usedBefore)
	}
	// Per-AA counts must be consistent with the recount.
	for gi := 0; gi < testGeo.NumGroups; gi++ {
		for aa := 0; aa < testGeo.AAsPerGroup(); aa++ {
			if m.AAFree(gi, aa) != a.AAFree(gi, aa) {
				t.Fatalf("aaFree[%d][%d] mismatch after mount", gi, aa)
			}
		}
	}
}

func TestMountFailsWithoutSuperblock(t *testing.T) {
	_, a := newTestAggr(t)
	if _, err := MountFrom(a); err == nil {
		t.Fatal("mount of unformatted media must fail")
	}
}

func TestMountFailsOnCorruptSuperblock(t *testing.T) {
	s, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	f := v.CreateFile(100)
	f.WriteBlock(0, pattern(1))
	v.MarkDirty(f)
	cp := &testCheckpoint{t: t, s: s, a: a}
	s.Go("cp", sim.CatCP, func(th *sim.Thread) { cp.run(th) })
	s.Run(sim.Time(10 * sim.Second))
	cp.check()

	// Corrupt the superblock checksum region.
	sb := a.ReadVBNRaw(a.geo.VBNOf(0, 0, 0))
	bad := block.Clone(sb)
	bad[100] ^= 0xFF
	s.Go("corrupt", sim.CatOther, func(th *sim.Thread) {
		a.Group(0).Drive(0).WriteSync(th, []storage.WriteReq{{DBN: 0, Data: bad}})
	})
	s.Run(sim.Time(20 * sim.Second))
	if _, err := MountFrom(a); err == nil {
		t.Fatal("mount must reject corrupt superblock")
	}
}

func TestRaidParityConsistentAfterCheckpoint(t *testing.T) {
	// The mini-CP bypasses tetris/parity, so this only checks that
	// VerifyStripe tolerates data written without parity when
	// reconstructing is not claimed. Full parity verification happens in
	// the core allocator tests. Here we just ensure media reads work via
	// the RAID accessors used by mount.
	s, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	f := v.CreateFile(100)
	f.WriteBlock(0, pattern(9))
	v.MarkDirty(f)
	cp := &testCheckpoint{t: t, s: s, a: a}
	s.Go("cp", sim.CatCP, func(th *sim.Thread) { cp.run(th) })
	s.Run(sim.Time(10 * sim.Second))
	cp.check()
	if a.ReadVBNRaw(a.geo.VBNOf(0, 0, 0)) == nil {
		t.Fatal("superblock unreadable through geometry accessor")
	}
}

// TestCreateFileAtForms pins the one create path against every state an
// inode number can be in — fresh, created but not yet persisted, persisted by
// a committed CP — for both forms: an explicit number (NVRAM replay: must be
// idempotent) and 0 (the live path: the next unused number, whatever earlier
// explicit creates claimed).
func TestCreateFileAtForms(t *testing.T) {
	s, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	persisted := v.CreateFile(1 << 12) // CreateFile is the 0 form
	persisted.WriteBlock(5, pattern(1))
	v.MarkDirty(persisted)
	cp := &testCheckpoint{t: t, s: s, a: a}
	s.Go("cp", sim.CatCP, func(th *sim.Thread) { cp.run(th) })
	s.Run(sim.Time(10 * sim.Second))
	cp.check()
	a.CrashAll()
	m, err := MountFrom(a)
	if err != nil {
		t.Fatal(err)
	}
	v = m.Volume(0)

	// Explicit, persisted: the file on media, not a fresh empty one.
	got := v.CreateFileAt(persisted.Ino(), 1<<12)
	if got.Ino() != persisted.Ino() || !bytes.Equal(v.ReadBlock(nil, got, 5).Bytes, pattern(1)) {
		t.Fatal("re-creating a persisted inode did not return the file on media")
	}
	if v.DirtyFiles() != 0 || len(v.FreezeAll(nil)) != 0 {
		t.Fatal("re-creating a persisted inode dirtied it")
	}
	// Explicit, fresh — ahead of the counter, as replay after a CP that
	// persisted a later nextIno never is, but a gap must still be safe.
	const ahead = FirstUserIno + 10
	pending := v.CreateFileAt(ahead, 100)
	if pending.Ino() != ahead || v.NextIno() != ahead+1 {
		t.Fatalf("explicit fresh create: ino %d, nextIno %d", pending.Ino(), v.NextIno())
	}
	// Explicit, pending: the same in-memory file, record still queued once.
	if again := v.CreateFileAt(ahead, 100); again != pending || v.NextIno() != ahead+1 {
		t.Fatal("re-creating a pending inode made a second file or moved the counter")
	}
	// 0 form: skips everything claimed so far, persisted or pending.
	if next := v.CreateFileAt(0, 100); next.Ino() != ahead+1 || v.NextIno() != ahead+2 {
		t.Fatalf("assigning create after an explicit one: ino %d, nextIno %d", next.Ino(), v.NextIno())
	}
	// Explicit below the counter and unused (the gap): created, counter kept.
	if gap := v.CreateFileAt(ahead-1, 100); gap.Ino() != ahead-1 || v.NextIno() != ahead+2 {
		t.Fatalf("explicit create in a gap: ino %d, nextIno %d", gap.Ino(), v.NextIno())
	}
	if n := len(v.FreezeAll(nil)); n != 3 {
		t.Fatalf("%d inode records queued, want 3 (pending, assigned, gap)", n)
	}
}

// TestRequestSnapshotForms is the same table for snapshot IDs: fresh, already
// pending, already materialized, in the explicit (replay) and 0 (live) forms.
func TestRequestSnapshotForms(t *testing.T) {
	_, a := newTestAggr(t)
	v := a.AddVolume(1 << 16)
	pendingIDs := func() []uint64 {
		p := v.TakePendingSnapshots()
		for _, id := range p {
			v.RequestSnapshot(id)
		}
		return p
	}
	// 0 form, fresh: IDs count from 1.
	if id := v.RequestSnapshot(0); id != 1 {
		t.Fatalf("first assigned snapshot ID = %d", id)
	}
	// Explicit, pending: nothing queued twice.
	if id := v.RequestSnapshot(1); id != 1 || len(pendingIDs()) != 1 {
		t.Fatalf("re-requesting a pending snapshot: id %d, pending %v", id, pendingIDs())
	}
	// Explicit, materialized: a no-op.
	for _, id := range v.TakePendingSnapshots() {
		v.MaterializeSnapshot(id, 1)
	}
	if id := v.RequestSnapshot(1); id != 1 || !v.SnapshotsQuiescent() {
		t.Fatalf("re-requesting a materialized snapshot queued it again (id %d)", id)
	}
	// Explicit, fresh, ahead of the counter; then the 0 form skips past it.
	if id := v.RequestSnapshot(7); id != 7 {
		t.Fatalf("explicit fresh snapshot ID = %d", id)
	}
	if id := v.RequestSnapshot(0); id != 8 {
		t.Fatalf("assigned ID after an explicit 7 = %d, want 8", id)
	}
	// A cancelled create (deleted while pending) replays as fresh again.
	if !v.DeleteSnapshot(7) {
		t.Fatal("cancelling a pending create failed")
	}
	if id := v.RequestSnapshot(7); id != 7 {
		t.Fatalf("re-requesting a cancelled create = %d", id)
	}
	if got := pendingIDs(); len(got) != 2 || got[0] != 8 || got[1] != 7 {
		t.Fatalf("pending = %v, want [8 7]", got)
	}
	// 0 form with everything above in place: still the next unused ID.
	if id := v.RequestSnapshot(0); id != 9 {
		t.Fatalf("assigned ID = %d, want 9", id)
	}
}

// maxFuzzVVBNs bounds the VVBN space FuzzDecodeVolumePrefix decodes: a larger
// one decodes the same way, at a host cost linear in its size (the free-space
// index is rebuilt word by word).
const maxFuzzVVBNs = 1 << 24

// checkpointed returns an aggregate whose media hold one committed mini-CP:
// volume 0 with a file and snapshot 1, and volume 1, a clone bound to that
// snapshot.
func checkpointed(tb testing.TB) (*sim.Scheduler, *Aggregate, *testCheckpoint) {
	s, a := newTestAggr(tb)
	v := a.AddVolume(1 << 16)
	cl := a.AddVolume(1 << 16)
	file := v.CreateFile(1 << 12)
	file.WriteBlock(3, pattern(1))
	v.MarkDirty(file)
	v.RequestSnapshot(0)
	cp := &testCheckpoint{t: tb, s: s, a: a}
	s.Go("cp", sim.CatCP, func(th *sim.Thread) {
		for _, id := range v.TakePendingSnapshots() {
			sn, _ := v.MaterializeSnapshot(id, 1)
			cp.cleanFile(th, sn.Snapmap, false, nil)
			cp.cleanFile(th, sn.InoCopy, false, nil)
			cl.RequestCloneBind(v.ID(), id)
			v.AddCloneRef(id)
			cl.MaterializeClone(v)
		}
		v.WriteSnapdirEntries()
		cp.run(th)
	})
	s.Run(sim.Time(10 * sim.Second))
	cp.check()
	return s, a, cp
}

// patchVBN overwrites committed block vbn with a copy of its image that fn
// has modified, through WriteSync, and returns the undo. The media's own
// image is never written into: buffers and parity rows alias it.
func patchVBN(s *sim.Scheduler, a *Aggregate, vbn block.VBN, fn func(img []byte)) (undo func()) {
	orig := a.ReadVBNRaw(vbn)
	img := block.Clone(orig)
	fn(img)
	write := func(data []byte) {
		g, d, dbn := a.geo.Locate(vbn)
		s.Go("patch", sim.CatOther, func(th *sim.Thread) {
			a.Group(g).Drive(d).WriteSync(th, []storage.WriteReq{{DBN: dbn, Data: data}})
		})
		s.RunFor(sim.Second)
	}
	write(img)
	return func() { write(orig) }
}

// TestMountRejectsDamage: each damage FuzzMountFrom found panicked mount;
// now it fails it with an error, and the undamaged image mounts again.
func TestMountRejectsDamage(t *testing.T) {
	s, a, _ := checkpointed(t)
	if m, err := MountFrom(a); err != nil || !m.Volume(1).IsClone() {
		t.Fatalf("the undamaged image mounts with error %v, or without its clone", err)
	}
	cl := a.Volume(1)
	cloneOf := func(parent int) func([]byte) {
		return func(img []byte) {
			st := *cl.CloneState()
			st.ParentVol = parent
			st.Encode(img[cl.ID()*VolEntrySize:])
		}
	}
	past := a.geo.TotalBlocks() % bitmap.BitsPerBlock
	for _, c := range []struct {
		name  string
		vbn   block.VBN
		patch func([]byte)
	}{
		{"clone of volume 2 of 2", a.volTable.Buffer(0, 0).VBN(), cloneOf(2)},
		{"clone of volume -1", a.volTable.Buffer(0, 0).VBN(), cloneOf(-1)},
		{"clone of volume 2^40", a.volTable.Buffer(0, 0).VBN(), cloneOf(1 << 40)},
		{"volume activemap record without FlagMetafile", a.volTable.Buffer(0, 0).VBN(),
			func(img []byte) { img[192+20] = byte(fs.FlagInUse) }}, // the flags of volume 0's third record
		{"activemap bit past the aggregate", a.amapFile.Buffer(0, bitmap.BlockOf(a.geo.TotalBlocks())).VBN(),
			func(img []byte) { img[past/8] |= 1 << (past % 8) }},
	} {
		undo := patchVBN(s, a, c.vbn, c.patch)
		if m, err := MountFrom(a); err == nil || m != nil {
			t.Errorf("%s: mounted", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
		undo()
	}
	if _, err := MountFrom(a); err != nil {
		t.Fatalf("the restored image does not mount: %v", err)
	}
}

// TestMountRejectsOverlongL0: a container block written in a 64-bit entry
// format, 4 KiB on the media, holds entries past the container's 2 KiB L0
// length. Installing it would cut them off, so mount fails with an error
// that names the block; the undamaged image mounts again. So does a
// container L1 with a byte past its 256 pointers, which installing would
// carry into a full-block array and the next clean back to the media; the
// same L1 written as a full block with only zeros past its pointers mounts.
func TestMountRejectsOverlongL0(t *testing.T) {
	s, a, _ := checkpointed(t)
	v := a.Volume(0)
	b := v.ContainerFile().Buffer(0, 0)
	undo := patchVBN(s, a, b.VBN(), func(img []byte) {
		for i := range ContainerEntriesPerBlock {
			binary.LittleEndian.PutUint64(img[8*i:], uint64(v.Container(block.VVBN(i))))
		}
		binary.LittleEndian.PutUint64(img[8*(ContainerEntriesPerBlock-1):], 12345)
	})
	m, err := MountFrom(a)
	if m != nil || err == nil {
		t.Fatal("a 4 KiB container block mounted")
	}
	at := fmt.Sprintf("metafile %d block (level 0, index 0) at %v", inoVolContainer, b.VBN())
	if !strings.Contains(err.Error(), at) {
		t.Fatalf("mount failed with %q; want it to name %s", err, at)
	}
	undo()
	if _, err := MountFrom(a); err != nil {
		t.Fatalf("the restored image does not mount: %v", err)
	}

	l1 := v.ContainerFile().Buffer(1, 0)
	undo = patchVBN(s, a, l1.VBN(), func(img []byte) { img[3000] = 7 })
	if m, err = MountFrom(a); m != nil || err == nil {
		t.Fatal("a container L1 with a byte past its pointers mounted")
	}
	at = fmt.Sprintf("metafile %d block (level 1, index 0) at %v", inoVolContainer, l1.VBN())
	if !strings.Contains(err.Error(), at) {
		t.Fatalf("mount failed with %q; want it to name %s", err, at)
	}
	undo()
	undo = patchVBN(s, a, l1.VBN(), func([]byte) {})
	if _, err := MountFrom(a); err != nil {
		t.Fatalf("a full-block L1 with only zeros past its pointers does not mount: %v", err)
	}
	undo()
}

// FuzzMountFrom checks that mount survives a damaged metafile: with any
// bytes written over any committed metafile block of the checkpointed
// aggregate, MountFrom returns an aggregate or an error, never panics. The
// fuzzer picks the block (pick-th the CP wrote), the offset and the bytes;
// each damage is undone after its mount. A seed moves the clone's parent
// link out of the volume table.
func FuzzMountFrom(f *testing.F) {
	s, a, cp := checkpointed(f)
	vt := a.VolTableFile().Buffer(0, 0).VBN()
	cl := a.Volume(1)
	entry := block.Clone(a.ReadVBNRaw(vt))[cl.ID()*VolEntrySize:][:VolEntrySize]
	st := *cl.CloneState()
	st.ParentVol = 7
	st.Encode(entry)
	f.Add(uint16(slices.Index(cp.meta, vt)), uint16(cl.ID()*VolEntrySize), entry)
	for i := range cp.meta {
		f.Add(uint16(i), uint16(i*24), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	}
	// A container block with an entry past its 2 KiB L0 length.
	f.Add(uint16(slices.Index(cp.meta, a.Volume(0).ContainerFile().Buffer(0, 0).VBN())), uint16(containerL0Len), []byte{7})
	// A container L1 with a byte past its 256 pointers.
	f.Add(uint16(slices.Index(cp.meta, a.Volume(0).ContainerFile().Buffer(1, 0).VBN())), uint16(3000), []byte{7})
	f.Fuzz(func(t *testing.T, pick, off uint16, patch []byte) {
		vbn := cp.meta[int(pick)%len(cp.meta)]
		undo := patchVBN(s, a, vbn, func(img []byte) {
			copy(img[int(off)%block.Size:], patch)
			if vbn != vt {
				return
			}
			for e := img; len(e) >= VolEntrySize; e = e[VolEntrySize:] {
				if binary.LittleEndian.Uint64(e[8:]) > maxFuzzVVBNs {
					t.Skip("VVBN space beyond the fuzzing bound")
				}
			}
		})
		defer undo()
		if m, err := MountFrom(a); (m == nil) == (err == nil) {
			t.Fatalf("MountFrom returned aggregate %p and error %v", m, err)
		}
	})
}

// FuzzDecodeVolumePrefix checks the short-image rule for volume-table
// entries: any prefix (up to a block) of an entry decodes as its zero-padded
// twin — the same volume, or an error for both — and never panics, whatever
// the bytes. The seeds are committed entries of a checkpointed aggregate (a
// volume with a file and a snapshot) and the same entry as a bound clone's;
// decoding reads that aggregate's media.
func FuzzDecodeVolumePrefix(f *testing.F) {
	_, a, _ := checkpointed(f)
	v := a.Volume(0)
	entry := bytes.Clone(a.VolTableFile().Buffer(0, 0).Data()[:VolEntrySize])
	bound := bytes.Clone(entry)
	(&clone.State{ParentVol: 0, ParentSnap: 1, BaseFile: fs.NewFile(inoVolBasemap, v.amapFile.Height())}).Encode(bound)
	for _, e := range [][]byte{entry, bound} {
		for _, n := range []int{len(block.Trim(e)), 30, 100, 200, 400} {
			f.Add(e, n)
		}
	}
	f.Fuzz(func(t *testing.T, img []byte, n int) {
		img = img[:min(len(img), block.Size)]
		if n < 0 || n > len(img) {
			return
		}
		padded := block.Clone(img[:n])
		if binary.LittleEndian.Uint64(padded[8:]) > maxFuzzVVBNs {
			t.Skip("VVBN space beyond the fuzzing bound")
		}
		got, gerr := a.decodeVolume(img[:n])
		want, werr := a.decodeVolume(padded)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("prefix of %d bytes: error %v, padded %v", n, gerr, werr)
		}
		if gerr != nil {
			return
		}
		g, w := make([]byte, VolEntrySize), make([]byte, VolEntrySize)
		got.encodeEntry(g)
		want.encodeEntry(w)
		if !bytes.Equal(g, w) || got.Activemap.Free() != want.Activemap.Free() || got.Summary.Free() != want.Summary.Free() {
			t.Fatalf("prefix of %d bytes decodes to a different volume than its padded twin", n)
		}
	})
}
