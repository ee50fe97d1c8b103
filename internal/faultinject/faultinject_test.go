package faultinject

import (
	"testing"

	"wafl/internal/sim"
)

func TestEveryNthArms(t *testing.T) {
	in := New(Config{
		DropWriteEvery:  3,
		DelayWriteEvery: 2,
		Delay:           100 * sim.Microsecond,
	})
	var drops, delays int
	for i := 0; i < 12; i++ {
		f := in.WriteFault("d0", 4)
		if f.Drop {
			drops++
			if f.Delay != 0 {
				t.Fatal("dropped I/O should not also be delayed")
			}
		} else if f.Delay != 0 {
			delays++
		}
	}
	if drops != 4 {
		t.Fatalf("drops = %d, want 4", drops)
	}
	// Every 2nd write is delayed except where the drop arm already claimed
	// it (multiples of 6): writes 2,4,8,10 delayed; 6,12 dropped.
	if delays != 4 {
		t.Fatalf("delays = %d, want 4", delays)
	}
}

func TestTornPrefixHalf(t *testing.T) {
	in := New(Config{TornWriteEvery: 2, TornWritePrefix: -1})
	if p := in.CrashPrefix("d0", 8); p != 0 {
		t.Fatalf("first write torn: prefix %d", p)
	}
	if p := in.CrashPrefix("d0", 8); p != 4 {
		t.Fatalf("second write prefix = %d, want 4", p)
	}
	// Single-block writes are never torn and don't advance the counter.
	if p := in.CrashPrefix("d0", 1); p != 0 {
		t.Fatalf("single-block write torn: prefix %d", p)
	}
}

func TestTornPrefixClamped(t *testing.T) {
	in := New(Config{TornWriteEvery: 1, TornWritePrefix: 10})
	if p := in.CrashPrefix("d0", 3); p != 3 {
		t.Fatalf("prefix = %d, want clamp to 3", p)
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{TornWriteEvery: 3, TornWritePrefix: 1, DelayWriteEvery: 5,
		Delay: sim.Millisecond, ReadErrEvery: 7}
	run := func() []bool {
		in := New(cfg)
		var seq []bool
		for i := 0; i < 50; i++ {
			f := in.WriteFault("d0", 4)
			seq = append(seq, f.Drop, f.Delay != 0)
			seq = append(seq, in.PeekFault("d0", 9), in.CrashPrefix("d1", 4) > 0)
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
	}
}

func TestFailBlockPersists(t *testing.T) {
	in := New(Config{})
	in.FailBlock("d0", 42)
	for i := 0; i < 3; i++ {
		if !in.PeekFault("d0", 42) {
			t.Fatal("persistent failure did not fire")
		}
	}
	if in.PeekFault("d0", 41) || in.PeekFault("d1", 42) {
		t.Fatal("failure leaked to another block/drive")
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	if !(Config{TornWriteEvery: 1}).Enabled() {
		t.Fatal("torn config not enabled")
	}
}
