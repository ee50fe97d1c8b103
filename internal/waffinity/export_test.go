package waffinity

// Walk visits every affinity in the hierarchy depth-first.
func (w *Scheduler) Walk(visit func(*Affinity)) {
	var rec func(*Affinity)
	rec = func(a *Affinity) {
		visit(a)
		for _, c := range a.children {
			rec(c)
		}
	}
	rec(w.root)
}

// MemoSound reports whether the "nothing can run" that pickMessage would now
// answer from memory, if it would, is what the scan it stands in for finds.
func (w *Scheduler) MemoSound() bool {
	if w.blocked {
		for _, aff := range w.pendingAffs {
			if aff.pending.Len() > 0 && canRun(aff) {
				return false
			}
		}
	}
	return true
}
