package faultinject

import (
	"testing"

	"wafl/internal/sim"
)

func TestEveryNthArms(t *testing.T) {
	in := New(Config{
		DelayWriteEvery: 2,
		DelayReadEvery:  3,
		Delay:           100 * sim.Microsecond,
	})
	var writeDelays, readDelays int
	for i := 0; i < 12; i++ {
		if f := in.WriteFault("d0", 4); f.Delay == 100*sim.Microsecond {
			writeDelays++
		} else if f.Delay != 0 {
			t.Fatalf("write %d delayed by %v", i+1, f.Delay)
		}
		if f := in.ReadFault("d0", 4); f.Delay != 0 {
			readDelays++
		}
	}
	// Every 2nd write and every 3rd read: writes 2,4,...,12, reads 3,6,9,12.
	if writeDelays != 6 || readDelays != 4 {
		t.Fatalf("delays = %d writes, %d reads, want 6 and 4", writeDelays, readDelays)
	}
	if st := in.Stats(); st.WritesSeen != 12 || st.ReadsSeen != 12 || st.Delayed != 10 {
		t.Fatalf("stats = %+v", st)
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
			seq = append(seq, f.Delay != 0)
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
