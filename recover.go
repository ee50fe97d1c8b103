package wafl

// Crash models a whole-node power loss: every simulated thread belonging
// to this System is destroyed (a CP caught mid-flight never finishes),
// every in-flight drive I/O on every member is dropped, and all volatile
// state (buffer caches, dirty sets, allocator state) is abandoned. The
// System is unusable until Recover remounts every member from the
// committed media plus the (nonvolatile) operation logs.
//
// For a partial failure — one member down, survivors serving traffic —
// use CrashMember/RecoverMember instead.
func (sys *System) Crash() {
	sys.stopped = true
	for _, m := range sys.members {
		m.crash()
	}
	sys.s.KillRange(0, sys.s.ThreadMark()) // the client threads
}

// Recover is RecoverMember on every member in order: each loads its last
// committed consistency point from its drives and replays its NVRAM log
// partition (frozen half first, then active), leaving the replayed
// operations dirty in memory for the next CP — exactly the paper's §II-C
// recovery contract. It returns its receiver, running on the same
// simulated scheduler and drives and accepting clients again.
//
// Mount-time and replay work is untimed: recovery latency is not part of
// any measured experiment.
func (sys *System) Recover() (*System, error) {
	for i := range sys.members {
		if err := sys.RecoverMember(i); err != nil {
			return nil, err
		}
	}
	sys.stopped = false
	return sys, nil
}

// CrashMember models a single-member failure: member i's service threads
// are destroyed, its in-flight drive I/O is dropped, and its volatile
// state is abandoned — while every other member keeps serving traffic.
// Clients pinned to the failed member must go down with it (their
// closed-loop sessions die with the node that served them); pass them so
// their threads are killed too. The member is unusable until
// RecoverMember.
func (sys *System) CrashMember(i int, clients ...*ClientCtx) {
	for _, c := range clients {
		sys.s.KillRange(c.threadIdx, c.threadIdx+1)
	}
	sys.members[i].crash()
}

// RecoverMember remounts crashed member i in place from its persistent
// state — committed media plus its NVRAM log partition — while the rest of
// the cluster keeps running. New service threads are spawned on the shared
// scheduler; cumulative statistics carry over. Clients for the recovered
// member must be re-attached by the caller (ClientThread).
func (sys *System) RecoverMember(i int) error {
	m, err := sys.remountMember(sys.members[i])
	if err != nil {
		return err
	}
	sys.members[i] = m
	return nil
}
