package sim

// GoAt is like Go but delays the thread's start until time at.
func (s *Scheduler) GoAt(at Time, name string, cat Category, fn func(*Thread)) *Thread {
	return s.spawn(at, name, cat, fn)
}

// Live returns the number of simulated threads that have been spawned and
// have not yet returned.
func (s *Scheduler) Live() int { return s.live }

// totalBusy returns the cumulative busy time across all categories.
func totalBusy(b Busy) Duration {
	return b.Other + b.Client + b.Waffinity + b.Cleaner + b.Infra + b.CP + b.RAID
}
