package cp

import (
	"bytes"
	"testing"

	"wafl/internal/aggregate"
	"wafl/internal/block"
	"wafl/internal/core"
	"wafl/internal/fs"
	"wafl/internal/nvlog"
	"wafl/internal/sim"
	"wafl/internal/storage"
	"wafl/internal/waffinity"
)

type env struct {
	s      *sim.Scheduler
	a      *aggregate.Aggregate
	in     *core.Infra
	pool   *core.Pool
	log    *nvlog.Log
	engine *Engine
}

func newEnv(t *testing.T) *env {
	t.Helper()
	s := sim.New(8, 1)
	w := waffinity.New(s, 8, 0)
	h := waffinity.NewHierarchy(w, waffinity.HierarchyConfig{
		VolumesPerAgg: 2, StripesPerVol: 4, RangesPerVBN: 4,
	})
	a, err := aggregate.New(s, aggregate.Config{
		Geometry: aggregate.Geometry{NumGroups: 2, DataDrives: 3, Depth: 8192, AAStripes: 1024},
		Profile:  storage.SSD,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.AddVolume(1 << 15)
	a.AddVolume(1 << 15)
	opts := core.DefaultOptions()
	opts.MaxCleaners = 3
	opts.InitialCleaners = 3
	costs := core.DefaultCosts()
	in := core.NewInfra(w, h, a, opts, costs)
	pool := core.NewPool(in, opts, costs)
	log := nvlog.New(1 << 20)
	engine := New(w, h, a, in, pool, log, opts, costs)
	return &env{s: s, a: a, in: in, pool: pool, log: log, engine: engine}
}

// runCP triggers a CP and runs until it completes.
func (e *env) runCP(t *testing.T) {
	t.Helper()
	before := e.engine.Stats().CPs
	e.engine.RequestCP()
	for i := 0; i < 100 && e.engine.Stats().CPs == before; i++ {
		e.s.RunFor(50 * sim.Millisecond)
	}
	if e.engine.Stats().CPs == before {
		t.Fatal("CP did not complete")
	}
}

func payload(tag byte) []byte {
	p := make([]byte, block.Size)
	for i := range p {
		p[i] = tag ^ byte(i*3)
	}
	return p
}

func TestCPFlushesDirtyFile(t *testing.T) {
	e := newEnv(t)
	v := e.a.Volume(0)
	f := v.CreateFile(1 << 12)
	for i := 0; i < 50; i++ {
		f.WriteBlock(block.FBN(i), payload(byte(i)))
	}
	v.MarkDirty(f)
	e.log.Append(nvlog.Record{Kind: nvlog.OpWrite, Ino: f.Ino(), LogicalBytes: block.Size})
	e.runCP(t)

	if f.FrozenCount() != 0 || f.DirtyCount() != 0 {
		t.Fatalf("frozen=%d dirty=%d after CP", f.FrozenCount(), f.DirtyCount())
	}
	if err := e.engine.VerifyClean(); err != nil {
		t.Fatal(err)
	}
	// The data must be on committed media at the recorded locations.
	for i := 0; i < 50; i++ {
		_, vbn, _ := f.Resolve(block.FBN(i), e.a)
		got := e.a.ReadVBNRaw(vbn)
		if !bytes.Equal(got, payload(byte(i))) {
			t.Fatalf("block %d content mismatch on media", i)
		}
	}
	if e.engine.Stats().InodesCleaned == 0 || e.engine.Stats().RecordsWritten == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestCPCommitsSuperblockAndMounts(t *testing.T) {
	e := newEnv(t)
	v := e.a.Volume(0)
	f := v.CreateFile(1 << 12)
	f.WriteBlock(7, payload(0xAB))
	v.MarkDirty(f)
	e.runCP(t)

	m, err := aggregate.MountFrom(e.a)
	if err != nil {
		t.Fatal(err)
	}
	if m.CPCount() != 1 {
		t.Fatalf("mounted cp count = %d", m.CPCount())
	}
	mf := m.Volume(0).LookupFile(f.Ino())
	if mf == nil {
		t.Fatal("file lost across mount")
	}
	got := m.Volume(0).ReadBlock(nil, mf, 7)
	if !bytes.Equal(got.Bytes, payload(0xAB)) {
		t.Fatal("mounted content mismatch")
	}
}

func TestEmptyCPStillCommits(t *testing.T) {
	e := newEnv(t)
	e.runCP(t)
	if e.a.CPCount() != 1 {
		t.Fatal("empty CP did not bump the superblock")
	}
	if _, err := aggregate.MountFrom(e.a); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialCPsReuseSpace(t *testing.T) {
	e := newEnv(t)
	v := e.a.Volume(0)
	f := v.CreateFile(1 << 12)
	var usedPeak uint64
	for round := 0; round < 5; round++ {
		for i := 0; i < 64; i++ {
			f.WriteBlock(block.FBN(i), payload(byte(round)))
		}
		v.MarkDirty(f)
		e.runCP(t)
		used := e.a.Activemap.Used()
		if round == 1 {
			usedPeak = used
		}
		if round > 1 && used > usedPeak+16 {
			t.Fatalf("space leak across CPs: round %d used %d > peak %d", round, used, usedPeak)
		}
	}
}

func TestBackToBackAccounting(t *testing.T) {
	e := newEnv(t)
	v := e.a.Volume(0)
	f := v.CreateFile(1 << 12)
	f.WriteBlock(0, payload(1))
	v.MarkDirty(f)
	e.engine.RequestCP()
	e.s.RunFor(100 * sim.Microsecond) // let CP 1 start
	if !e.engine.Running() {
		t.Fatal("CP should be running")
	}
	e.engine.RequestCP() // while running: chains back-to-back
	e.s.RunFor(2 * sim.Second)
	if e.engine.Stats().CPs < 2 {
		t.Fatalf("cps = %d, want 2 (chained)", e.engine.Stats().CPs)
	}
	if e.engine.Stats().BackToBack == 0 {
		t.Fatal("back-to-back not recorded")
	}
}

func TestWaitCPDoneWakesWaiters(t *testing.T) {
	e := newEnv(t)
	woken := false
	e.s.Go("waiter", sim.CatClient, func(th *sim.Thread) {
		e.engine.WaitCPDone(th)
		woken = true
	})
	e.s.RunFor(10 * sim.Millisecond)
	e.runCP(t)
	if !woken {
		t.Fatal("WaitCPDone waiter not woken")
	}
}

func TestCrashMidCPKeepsPreviousImage(t *testing.T) {
	e := newEnv(t)
	v := e.a.Volume(0)
	f := v.CreateFile(1 << 12)
	f.WriteBlock(0, payload(1))
	v.MarkDirty(f)
	e.runCP(t) // CP 1 commits content "1"

	// Dirty again and crash while the second CP is mid-flight.
	for i := 0; i < 200; i++ {
		f.WriteBlock(block.FBN(i), payload(2))
	}
	v.MarkDirty(f)
	e.engine.RequestCP()
	e.s.RunFor(200 * sim.Microsecond) // partway into CP 2
	if e.a.CPCount() >= 2 {
		t.Skip("CP 2 finished too fast to crash mid-flight")
	}
	e.a.CrashAll()
	m, err := aggregate.MountFrom(e.a)
	if err != nil {
		t.Fatal(err)
	}
	if m.CPCount() != 1 {
		t.Fatalf("mounted cp = %d, want 1 (previous image)", m.CPCount())
	}
	mf := m.Volume(0).LookupFile(f.Ino())
	got := m.Volume(0).ReadBlock(nil, mf, 0)
	if !bytes.Equal(got.Bytes, payload(1)) {
		t.Fatal("previous CP's content corrupted by crashed CP")
	}
}

func TestMultiVolumeCP(t *testing.T) {
	e := newEnv(t)
	var files []*fs.File
	for vi := 0; vi < 2; vi++ {
		v := e.a.Volume(vi)
		f := v.CreateFile(1 << 12)
		for i := 0; i < 30; i++ {
			f.WriteBlock(block.FBN(i), payload(byte(vi*100+i)))
		}
		v.MarkDirty(f)
		files = append(files, f)
	}
	e.runCP(t)
	for vi, f := range files {
		if f.FrozenCount() != 0 {
			t.Fatalf("vol %d file not cleaned", vi)
		}
		vvbn, vbn, _ := f.Resolve(3, e.a)
		if vol := e.a.Volume(vi); vol.Container(vvbn) != vbn {
			t.Fatalf("vol %d container entry missing", vi)
		}
	}
}
