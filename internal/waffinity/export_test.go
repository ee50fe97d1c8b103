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
