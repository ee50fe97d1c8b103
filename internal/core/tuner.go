package core

import (
	"wafl/internal/sim"
)

// The dynamic cleaner-thread tuner's parameters, the paper's (§V-B).
const (
	tunerInterval   = 50 * sim.Millisecond // optimization period ("every 50ms")
	tunerActivateAt = 0.90                 // add a thread above this utilization
	tunerParkAt     = 0.50                 // remove a thread below this utilization
)

// TunerSample records one tuning decision, for the Fig 9 style traces.
type TunerSample struct {
	At          sim.Time
	Utilization float64
	Active      int
}

// Tuner dynamically adjusts the number of active cleaner threads based on
// their observed utilization: heavily loaded cleaning gets more threads;
// light cleaning sheds them to avoid lock contention, thread management
// overhead, and CPU stolen from other work (§V-B).
type Tuner struct {
	pool *Pool

	prevBusy  []sim.Duration
	prevAt    sim.Time
	prevPhase sim.Duration

	// History of decisions (bounded) for inspection.
	Samples []TunerSample
}

// StartTuner launches the tuner loop as a simulated thread. The loop never
// returns: the kill that ends its member's service threads ends it.
func StartTuner(pool *Pool) *Tuner {
	tu := &Tuner{pool: pool}
	tu.prevBusy = pool.CleanerEngaged()
	tu.prevPhase = pool.PhaseTime()
	pool.s.Go("cleaner-tuner", sim.CatOther, func(t *sim.Thread) {
		tu.prevAt = t.Now()
		for {
			t.Sleep(tunerInterval)
			tu.tick(t.Now())
		}
	})
	return tu
}

// tick computes the active threads' utilization over the window — engaged
// time normalized by the time cleaning phases were actually running, so a
// saturated cleaner shows as ~1.0 even when CPs are short bursts — and
// adjusts the active count by at most one.
func (tu *Tuner) tick(now sim.Time) {
	busy := tu.pool.CleanerEngaged()
	window := sim.Duration(now - tu.prevAt)
	if window <= 0 {
		return
	}
	phase := tu.pool.PhaseTime()
	dPhase := phase - tu.prevPhase
	active := tu.pool.Active()
	var used sim.Duration
	for i := 0; i < active && i < len(busy); i++ {
		d := busy[i]
		if i < len(tu.prevBusy) {
			d -= tu.prevBusy[i]
		}
		used += d
	}
	tu.prevBusy = busy
	tu.prevAt = now
	tu.prevPhase = phase

	if dPhase < window/20 {
		// Almost no cleaning happened: shed a thread.
		tu.pool.SetActive(active - 1)
		tu.sample(now, 0)
		return
	}
	util := float64(used) / (float64(dPhase) * float64(active))
	if util > 1 {
		util = 1
	}
	switch {
	case util > tunerActivateAt:
		tu.pool.SetActive(active + 1)
	case util < tunerParkAt:
		tu.pool.SetActive(active - 1)
	}
	tu.sample(now, util)
}

func (tu *Tuner) sample(now sim.Time, util float64) {
	if len(tu.Samples) < 100000 {
		tu.Samples = append(tu.Samples, TunerSample{At: now, Utilization: util, Active: tu.pool.Active()})
	}
}
