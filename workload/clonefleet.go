package workload

import (
	"fmt"

	"wafl"
)

// CloneFleet is the dev/test-fleet scenario writable clones exist for: a
// few dense, snapshotted parent volumes fan out into a fleet of writable
// clones, each clone is aged by divergence overwrites (every one a
// copy-on-first-write against a summary-held base block), and steady state
// runs random writers across the fleet while a per-parent manager churns
// and instantly SnapRestores its volume and a background split peels one
// clone off its parent. The clone-held summary bits are the worst case
// for the free index: dense regions where almost nothing is allocatable
// yet nothing is active-mapped either.
//
// The fleet has one shape: two 75%-full parents fan into eight clones, and
// every clone is aged through two divergence rounds, so measurement-time
// writes face parents whose summary maps are pinned by both a base snapshot
// and the fleet's base-block holds.
type CloneFleet struct{}

const (
	fleetParents      = 2     // parent volumes; the fleet rides on clone slots
	fleetFilesPerV    = 6     // files per parent
	fleetFileBlocks   = 16384 // per-file size
	fleetClonesPerVol = 4     // writable clones created from each parent's base snapshot

	fleetAgeRounds   = 2    // divergence passes over each clone before measurement
	fleetAgePerRound = 768  // random blocks overwritten per file per pass
	fleetAgeSpan     = 2048 // fbns per file eligible for overwrite

	fleetClients      = 48 // steady-state writers across the clones
	fleetOpBlocks     = 2
	fleetRestoreEvery = 4 * wafl.Millisecond // per-parent churn → SnapRestore cadence
	fleetSplits       = 1                    // clones put into background split at steady state
)

// Configure gives cfg the system shape the fleet needs: its parent volumes,
// a clone slot for each clone, and agedvol's volume and drive sizes.
func (CloneFleet) Configure(cfg *wafl.Config) {
	cfg.Volumes = fleetParents
	cfg.CloneSlots = fleetParents * fleetClonesPerVol
	cfg.VolumeBlocks = 1 << 18
	cfg.DriveBlocks = 131072
}

// String describes the fleet as a table note.
func (CloneFleet) String() string {
	return fmt.Sprintf("%d clones per run (%d parents x %d), aged %d divergence rounds; %d background split(s)",
		fleetParents*fleetClonesPerVol, fleetParents, fleetClonesPerVol, fleetAgeRounds, fleetSplits)
}

// Attach prefills and snapshots the parents, creates and ages the clone
// fleet in simulated time, then spawns the steady-state clients: writers
// across the clones, one churn-and-restore manager per parent, and a split
// kicked off on the first fleetSplits clones.
func (CloneFleet) Attach(sys *wafl.System) {
	flush := func(stage string) {
		if err := sys.Flush(); err != nil {
			panic(fmt.Sprintf("clonefleet %s: %v", stage, err))
		}
	}
	// Dense parent prefill, then the base snapshot every clone binds to.
	inos := make([][]uint64, fleetParents)
	for v := 0; v < fleetParents; v++ {
		for k := 0; k < fleetFilesPerV; k++ {
			ino := sys.CreateFileDirect(v, fleetFileBlocks)
			sys.Prewrite(v, ino, fleetFileBlocks, true)
			inos[v] = append(inos[v], ino)
		}
	}
	flush("prefill")
	base := make([]uint64, fleetParents)
	for v := 0; v < fleetParents; v++ {
		base[v] = sys.SnapCreateDirect(v)
	}
	flush("base snapshot")

	// Fan out the fleet. The binds all materialize in one CP; nothing is
	// copied — every clone starts as pure summary-held base blocks.
	var clones []int
	cloneParent := map[int]int{}
	for v := 0; v < fleetParents; v++ {
		for k := 0; k < fleetClonesPerVol; k++ {
			cv := sys.CloneCreateDirect(v, base[v])
			if cv < 0 {
				panic("clonefleet: clone slot exhausted (config not from Configure)")
			}
			clones = append(clones, cv)
			cloneParent[cv] = v
		}
	}
	flush("clone fan-out")

	// Age the fleet: divergence overwrites on every clone. Each first-touch
	// of a base block is a COW against the parent snapshot's hold.
	for r := 0; r < fleetAgeRounds; r++ {
		for _, cv := range clones {
			for _, ino := range inos[cloneParent[cv]] {
				sys.AgeOverwrite(cv, ino, fleetAgePerRound, fleetAgeSpan)
			}
		}
		flush(fmt.Sprintf("divergence round %d", r))
	}

	// Steady state: random writers across the fleet.
	for i := 0; i < fleetClients; i++ {
		cv := clones[i%len(clones)]
		ino := inos[cloneParent[cv]][i%fleetFilesPerV]
		i := i
		sys.ClientThread(fmt.Sprintf("clone-client-%d", i), func(c *wafl.ClientCtx) {
			for c.Alive() {
				c.Write(cv, ino, wafl.FBN(c.Rand(fleetAgeSpan-fleetOpBlocks)), fleetOpBlocks)
			}
		})
	}
	// Per-parent restore manager: churn a slice of the parent, then revert
	// it to the base snapshot — the instant-restore cycle. The parent's own
	// writes are scoped to the manager, so the gate stalls nobody else.
	for v := 0; v < fleetParents; v++ {
		v := v
		ino := inos[v][0]
		sys.ClientThread(fmt.Sprintf("clone-restore-manager-%d", v), func(c *wafl.ClientCtx) {
			for c.Alive() {
				for b := 0; b < 32 && c.Alive(); b++ {
					c.Write(v, ino, wafl.FBN(c.Rand(fleetAgeSpan-fleetOpBlocks)), fleetOpBlocks)
				}
				c.SnapRestore(v, base[v])
				c.Think(fleetRestoreEvery)
			}
		})
	}
	// Background splits: peel the first fleetSplits clones off their
	// parents; the bounded per-CP copy runs under the measurement load.
	sys.ClientThread("clone-split-manager", func(c *wafl.ClientCtx) {
		for k := 0; k < fleetSplits && c.Alive(); k++ {
			c.CloneSplit(clones[k])
		}
	})
}
