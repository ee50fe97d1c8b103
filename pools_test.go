package wafl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"wafl/internal/fifo"
	"wafl/internal/fs"
)

// withhold takes one record from the fifo.Pool in field of owner — the first
// of an array of pools, one per size class — and never puts it back: the
// leak a path that forgets its Put leaves behind. The pools are unexported,
// so a test reaches them by reflection.
func withhold(t *testing.T, owner any, field string) {
	t.Helper()
	f := reflect.ValueOf(owner).Elem().FieldByName(field)
	if !f.IsValid() {
		t.Fatalf("%T has no field %s", owner, field)
	}
	if f.Kind() == reflect.Array {
		f = f.Index(0)
	}
	get := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).MethodByName("Get")
	if !get.IsValid() {
		t.Fatalf("%T.%s is a %s, not a pool", owner, field, f.Type())
	}
	get.Call(nil)
}

// unexported returns the value of owner's unexported field name, which a
// test cannot otherwise reach across packages.
func unexported(owner any, name string) any {
	f := reflect.ValueOf(owner).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// leakLoad builds a small system whose every pool has turned over: writes,
// demand reads through a small buffer cache, and a few CPs.
func leakLoad(t *testing.T, cfg Config) *System {
	t.Helper()
	cfg.BCacheBlocks = 64
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inos := make([]uint64, cfg.Volumes)
	for vol := range inos {
		inos[vol] = sys.CreateFileDirect(vol, 1<<12)
		sys.Prewrite(vol, inos[vol], 2048, false)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reads land on the blocks being overwritten, some of them in flight.
	for vol, ino := range inos {
		sys.ClientThread("load", func(c *ClientCtx) {
			for c.Alive() {
				c.Write(vol, ino, FBN(c.Rand(1024)), 2)
				c.Read(vol, ino, FBN(c.Rand(1024)), 1)
			}
		})
	}
	sys.Run(30 * Millisecond)
	return sys
}

// TestQuiesceFindsLeakedRecord withholds one Put from each pool in turn, on a
// live system, and requires Quiesce to fail naming that pool and no other;
// with nothing withheld it passes. Then a crash: what the drives and RAID
// groups had outstanding, and the slot arrays the trees held, is
// abandoned, no more, and the recovered system quiesces clean.
func TestQuiesceFindsLeakedRecord(t *testing.T) {
	for _, row := range []struct {
		pool  string // as Quiesce names it; "" withholds nothing
		owner func(m *Member) any
		field string
	}{
		{pool: ""},
		{"Infra.TetrisPool", func(m *Member) any { return m.in }, "tetrisPool"},
		{"Infra.BucketPool", func(m *Member) any { return m.in }, "bucketPool"},
		{"Infra.VBucketPool", func(m *Member) any { return m.in }, "vbucketPool"},
		{"Infra.ListPool", func(m *Member) any { return m.in }, "listPool"},
		{"Infra.CommitPool", func(m *Member) any { return m.in }, "commitPool"},
		{"Pool.JobPool", func(m *Member) any { return m.pool }, "jobPool"},
		{"RAID.ScratchPool", func(m *Member) any { return m.a.Group(1) }, "scratchPool"},
		{"RAID.WritePool", func(m *Member) any { return m.a.Group(0) }, "writePool"},
		{"Drives.WritePool", func(m *Member) any { return m.a.Group(0).Drive(2) }, "writePool"},
		{"Drives.ReadPool", func(m *Member) any { return m.a.Group(1).Drive(0) }, "readPool"},
		{"Drives.WriteWaitPool", func(m *Member) any { return m.a.Group(0).ParityDrive() }, "writeWaitPool"},
		{"Drives.ReadWaitPool", func(m *Member) any { return m.a.Group(0).Drive(0) }, "readWaitPool"},
		{"Waffinity.MsgPool", func(m *Member) any { return m.w }, "msgPool"},
		{"Waffinity.CallPool", func(m *Member) any { return m.w }, "callPool"},
		{"Images.Slots", func(m *Member) any { return unexported(m.a, "images") }, "slots"},
	} {
		name := row.pool
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			sys := leakLoad(t, smallConfig())
			defer sys.Shutdown()
			if row.pool != "" {
				withhold(t, row.owner(sys.m0()), row.field)
			}
			sys.Run(10 * Millisecond) // the pool keeps turning over around the leak
			err := sys.Quiesce()
			switch {
			case row.pool == "" && err != nil:
				t.Fatalf("Quiesce with nothing withheld: %v", err)
			case row.pool == "":
			case err == nil:
				t.Fatal("Quiesce missed the withheld record")
			case !strings.Contains(err.Error(), row.pool+": 1 records outstanding") || strings.Count(err.Error(), "outstanding") != 1:
				t.Fatalf("Quiesce = %v, want %s alone named", err, row.pool)
			}
		})
	}

	t.Run("crash", func(t *testing.T) {
		cfg := smallConfig()
		cfg.NVRAMHalfBytes = 512 << 10 // frequent CPs: metafile writes read for parity
		sys := leakLoad(t, cfg)
		defer sys.Shutdown()
		// Halt where a RAID write waits on its reconstruction reads while
		// other writes are in flight.
		for i := 0; ; i++ {
			if st := sys.Stats(); st.RAID.ScratchPool.Outstanding() > 0 && st.Drives.WritePool.Outstanding() > 0 {
				break
			}
			if i == 5000 {
				t.Fatal("no RAID write caught waiting on its reads beside a write in flight")
			}
			sys.Run(10 * Microsecond)
		}
		pools := func(st Stats) map[string]fifo.PoolStats {
			return map[string]fifo.PoolStats{"RAID.ScratchPool": st.RAID.ScratchPool, "RAID.WritePool": st.RAID.WritePool,
				"Drives.WritePool": st.Drives.WritePool, "Drives.ReadPool": st.Drives.ReadPool,
				"Drives.WriteWaitPool": st.Drives.WriteWaitPool, "Drives.ReadWaitPool": st.Drives.ReadWaitPool,
				"Images.Slots": st.Images.Slots}
		}
		before := pools(sys.Stats())
		sys.Crash()
		for name, st := range pools(sys.Stats()) {
			if got, want := st.Abandoned-before[name].Abandoned, before[name].Outstanding(); int64(got) != want || st.Outstanding() != 0 {
				t.Errorf("%s: the crash abandoned %d records with %d outstanding, %d left", name, got, want, st.Outstanding())
			}
		}
		rec, err := sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Quiesce(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOverwriteOfFrozenBlock is the hazard a preserved CP image exists for
// (DESIGN §15): a client overwrites user L0s frozen into the running CP
// before the CP cleans them. The CP writes each block's old image and the
// client reads its overwrite; no preserved image outlives the commit, and
// Quiesce passes. The cleaners are slowed to a millisecond a buffer, so
// every overwrite finds its block uncleaned. (That such an overwrite
// allocates nothing is internal/fs's TestDataPathAllocations: here the
// CP's own work shares the window.)
//
// The passes repeat it on the same blocks, each CP's preserved images the
// previous pass's overwrites. A preserved image is the buffer's name by
// value (DESIGN §14), so once the pool has turned its indirect and
// metafile arrays over, a pass builds no array (ImageStats.New).
func TestOverwriteOfFrozenBlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Costs.CleanerPerBuffer = Millisecond
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	m := sys.m0()
	const blocks, overwrites, passes, warm = 512, 51, 10, 6
	ino := sys.CreateFileDirect(0, blocks)
	file := func() *fs.File { return m.a.Volume(0).LookupFile(ino) }
	var built []uint64 // ImageStats.New after each pass
	sys.ClientThread("cow", func(c *ClientCtx) {
		c.WriteTag(0, ino, 0, blocks, 1)
		for pass := range byte(passes) {
			sys.ForceCP()
			for file().FrozenCount() == 0 {
				c.Think(Microsecond)
			}
			for fbn := FBN(blocks - overwrites); fbn < blocks; fbn++ {
				c.WriteTag(0, ino, fbn, 1, pass+2)
			}
			for m.engine.Running() {
				c.Think(Microsecond)
			}
			for fbn := FBN(blocks - overwrites); fbn < blocks; fbn++ {
				_, vbn, _ := file().Resolve(fbn, m.a)
				g, d, dbn := m.a.Geometry().Locate(vbn)
				if !bytes.Equal(m.a.Group(g).Drive(d).Image(dbn).Expand(), sys.expected(ino, fbn, pass+1)) ||
					!bytes.Equal(sys.VerifyRead(0, ino, fbn), sys.expected(ino, fbn, pass+2)) {
					t.Errorf("pass %d, fbn %d: the CP did not write its preserved image, or the client does not read its overwrite", pass, fbn)
				}
			}
			if err := m.a.CheckImages(); err != nil {
				t.Errorf("pass %d, after the commit: %v", pass, err)
			}
			built = append(built, m.a.ImageStats().New)
		}
	})
	sys.Run(3 * Second)
	if n := file().CoWCopies; len(built) != passes || n != passes*overwrites {
		t.Fatalf("%d of %d passes ran; %d of %d overwrites found their block frozen and uncleaned", len(built), passes, n, passes*overwrites)
	}
	t.Logf("image arrays built after each pass: %v", built)
	if built[passes-1] != built[warm-1] {
		t.Errorf("after %d passes the image pool still builds arrays: %d over the last %d passes, want 0", warm, built[passes-1]-built[warm-1], passes-warm)
	}
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
}
