// Package faultinject provides a deterministic drive-fault plan for the
// crash-schedule sweep. An Injector implements storage.Injector and decides,
// per I/O, whether to tear or delay it, and whether an OS-path read
// (PeekChecked) fails. Decisions are pure functions of per-arm counters —
// "every Nth I/O" — so a run with the same seed and the same fault Config
// produces the same event stream every time. The injector allocates no
// randomness and schedules no events of its own: faults only perturb I/Os
// the simulation was already issuing.
package faultinject

import (
	"wafl/internal/block"
	"wafl/internal/sim"
	"wafl/internal/storage"
)

// Config selects which fault arms are active. A zero Every disables that
// arm. All counters are global across drives, which keeps the plan simple
// and reproducible; per-drive plans can be layered later if needed.
type Config struct {
	// TornWriteEvery marks every Nth multi-block write as torn: if the
	// system crashes while it is in flight, only a prefix of its blocks
	// lands on media. Torn writes have no effect unless a crash happens —
	// a completed write always lands fully.
	TornWriteEvery uint64
	// TornWritePrefix is how many blocks of a torn write land at crash.
	// -1 means half the request (rounded down).
	TornWritePrefix int
	// DelayWriteEvery / DelayReadEvery add Delay to every Nth completion.
	DelayWriteEvery uint64
	DelayReadEvery  uint64
	Delay           sim.Duration
	// ReadErrEvery fails every Nth PeekChecked (OS read path) transiently.
	ReadErrEvery uint64
}

// Enabled reports whether any fault arm is active.
func (c Config) Enabled() bool {
	return c.TornWriteEvery != 0 || c.DelayWriteEvery != 0 ||
		c.DelayReadEvery != 0 || c.ReadErrEvery != 0
}

// Stats is a snapshot of injector decisions.
type Stats struct {
	WritesSeen  uint64
	ReadsSeen   uint64
	PeeksSeen   uint64
	TornPlanned uint64
	Delayed     uint64
	PeekErrs    uint64
}

// Injector implements storage.Injector with deterministic every-Nth
// counters. The simulation is single-threaded (one runnable sim thread at
// a time), so no locking is needed.
type Injector struct {
	cfg    Config
	writeN uint64
	readN  uint64
	peekN  uint64
	tornN  uint64 // multi-block writes seen, for the torn arm
	failed map[string]map[block.DBN]bool
	stats  Stats
}

var _ storage.Injector = (*Injector)(nil)

// New builds an injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, failed: make(map[string]map[block.DBN]bool)}
}

// WriteFault decides delay for one write I/O.
func (in *Injector) WriteFault(drive string, nblocks int) storage.WriteFault {
	in.writeN++
	in.stats.WritesSeen++
	var f storage.WriteFault
	if in.cfg.DelayWriteEvery != 0 && in.writeN%in.cfg.DelayWriteEvery == 0 {
		f.Delay = in.cfg.Delay
		in.stats.Delayed++
	}
	return f
}

// ReadFault decides delay for one read I/O.
func (in *Injector) ReadFault(drive string, nblocks int) storage.ReadFault {
	in.readN++
	in.stats.ReadsSeen++
	var f storage.ReadFault
	if in.cfg.DelayReadEvery != 0 && in.readN%in.cfg.DelayReadEvery == 0 {
		f.Delay = in.cfg.Delay
		in.stats.Delayed++
	}
	return f
}

// CrashPrefix reports how many leading blocks of an in-flight write land on
// media at crash. Called only from DropInFlight.
func (in *Injector) CrashPrefix(drive string, nblocks int) int {
	if in.cfg.TornWriteEvery == 0 || nblocks < 2 {
		return 0
	}
	in.tornN++
	if in.tornN%in.cfg.TornWriteEvery != 0 {
		return 0
	}
	in.stats.TornPlanned++
	p := in.cfg.TornWritePrefix
	if p < 0 {
		p = nblocks / 2
	}
	if p > nblocks {
		p = nblocks
	}
	return p
}

// PeekFault decides whether one OS-path read (PeekChecked) fails. Persistent
// per-block failures installed with FailBlock fire first; then the transient
// every-Nth arm. Transient errors clear on retry by construction: the retry
// advances the counter past the faulting multiple.
func (in *Injector) PeekFault(drive string, dbn block.DBN) bool {
	if m := in.failed[drive]; m != nil && m[dbn] {
		in.stats.PeekErrs++
		return true
	}
	if in.cfg.ReadErrEvery == 0 {
		return false
	}
	in.peekN++
	in.stats.PeeksSeen++
	if in.peekN%in.cfg.ReadErrEvery == 0 {
		in.stats.PeekErrs++
		return true
	}
	return false
}

// FailBlock installs a persistent read error for (drive, dbn) on the OS
// read path — the model of a latent sector error that forces RAID
// reconstruction.
func (in *Injector) FailBlock(drive string, dbn block.DBN) {
	m := in.failed[drive]
	if m == nil {
		m = make(map[block.DBN]bool)
		in.failed[drive] = m
	}
	m[dbn] = true
}

// Stats returns a snapshot of injector decisions so far.
func (in *Injector) Stats() Stats { return in.stats }
