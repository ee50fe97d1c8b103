package waffinity

import "wafl/internal/sim"

// Unit is one independent work item for ScatterJoin: fn runs as a message
// in aff with its CPU attributed to cat.
type Unit struct {
	Aff *Affinity
	Cat sim.Category
	Fn  func(*sim.Thread)
}

// ScatterJoin enqueues every unit (in slice order, so the event stream is a
// deterministic function of the caller's ordering) and blocks t until all
// of them have completed. Units on disjoint affinities execute concurrently
// under the hierarchy's usual exclusion rules; the join is a counted wait on
// a single WaitQueue, like Call. t must not be a Waffinity worker — a worker
// blocked on other messages could deadlock the pool. One join runs at a
// time, and its count, queue and completion are the scheduler's, reused by
// every join.
func (w *Scheduler) ScatterJoin(t *sim.Thread, units []Unit) {
	if len(units) == 0 {
		return
	}
	j := &w.join
	if j.remaining != 0 {
		panic("waffinity: ScatterJoin while another join is waiting")
	}
	j.remaining = len(units)
	for _, u := range units {
		w.Send(u.Aff, u.Cat, u.Fn, j.done)
	}
	for j.remaining > 0 {
		j.wq.Wait(t)
	}
}

// join is the state of the running ScatterJoin.
type join struct {
	wq        *sim.WaitQueue
	remaining int    // units not yet completed
	done      func() // each unit's completion: complete, bound once
}

// complete counts one unit done and wakes the joiner after the last.
func (j *join) complete() {
	if j.remaining--; j.remaining == 0 {
		j.wq.Signal()
	}
}
