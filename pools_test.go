package wafl

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"wafl/internal/fifo"
)

// withhold takes one record from the fifo.Pool in field of owner and never
// puts it back: the leak a path that forgets its Put leaves behind. The pools
// are unexported, so a test reaches them by reflection.
func withhold(t *testing.T, owner any, field string) {
	t.Helper()
	f := reflect.ValueOf(owner).Elem().FieldByName(field)
	if !f.IsValid() {
		t.Fatalf("%T has no field %s", owner, field)
	}
	get := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).MethodByName("Get")
	if !get.IsValid() {
		t.Fatalf("%T.%s is a %s, not a pool", owner, field, f.Type())
	}
	get.Call(nil)
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
// groups had outstanding is abandoned, no more, and the recovered system
// quiesces clean.
func TestQuiesceFindsLeakedRecord(t *testing.T) {
	for _, row := range []struct {
		pool  string // as Quiesce names it; "" withholds nothing
		owner func(m *Member) any
		field string
	}{
		{pool: ""},
		{"Infra.BucketPool", func(m *Member) any { return m.in }, "bucketPool"},
		{"Infra.VBucketPool", func(m *Member) any { return m.in }, "vbucketPool"},
		{"Infra.ListPool", func(m *Member) any { return m.in }, "listPool"},
		{"Infra.CommitPool", func(m *Member) any { return m.in }, "commitPool"},
		{"RAID.ScratchPool", func(m *Member) any { return m.a.Group(1) }, "scratchPool"},
		{"Drives.WritePool", func(m *Member) any { return m.a.Group(0).Drive(2) }, "writePool"},
		{"Drives.ReadPool", func(m *Member) any { return m.a.Group(1).Drive(0) }, "readPool"},
		{"Drives.WriteWaitPool", func(m *Member) any { return m.a.Group(0).ParityDrive() }, "writeWaitPool"},
		{"Drives.ReadWaitPool", func(m *Member) any { return m.a.Group(0).Drive(0) }, "readWaitPool"},
		{"Waffinity.MsgPool", func(m *Member) any { return m.w }, "msgPool"},
		{"Waffinity.CallPool", func(m *Member) any { return m.w }, "callPool"},
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
			return map[string]fifo.PoolStats{"RAID.ScratchPool": st.RAID.ScratchPool,
				"Drives.WritePool": st.Drives.WritePool, "Drives.ReadPool": st.Drives.ReadPool,
				"Drives.WriteWaitPool": st.Drives.WriteWaitPool, "Drives.ReadWaitPool": st.Drives.ReadWaitPool}
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
