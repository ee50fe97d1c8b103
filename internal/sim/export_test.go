package sim

// GoAt is like Go but delays the thread's start until time at.
func (s *Scheduler) GoAt(at Time, name string, cat Category, fn func(*Thread)) *Thread {
	return s.spawn(at, name, cat, fn)
}

// totalBusy returns the cumulative busy time across all categories.
func totalBusy(s CPUStats) Duration {
	var total Duration
	for _, b := range s.Busy {
		total += b
	}
	return total
}
