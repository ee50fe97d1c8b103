package workload

import (
	"fmt"

	"wafl"
)

// AgedVol reproduces the aged, snapshotted volume that makes bitmap-scan
// cost pathological: the volume is prefilled dense (≥75% of the VVBN space),
// a base snapshot pins the whole prefill image for the life of the run, and
// overwrite rounds under a rotating snapshot ring scatter summary-held bits
// (clear in the activemap, set in the summary — candidates a plain
// activemap scan would keep returning and rejecting) and true-free bits
// (holes reclaimed when a ring snapshot is deleted) through the dense
// regions. Measurement then runs random overwrites with one snapshot-manager
// per volume keeping the ring churning, so steady-state bucket fills face
// mostly-full fragmented maps — the paper's scan-cost-grows-with-occupancy
// regime, in which the volumes' free-space index keeps a fill's cost
// proportional to the blocks it finds.
type AgedVol struct {
	Clients    int
	FileBlocks uint64 // per-file size
	FilesPerV  int
	Volumes    int

	AgeRounds   int    // aging passes before measurement
	AgePerRound int    // random blocks overwritten per file per pass
	AgeSpan     uint64 // fbns per file eligible for overwrite (aging + steady state)
}

// At steady state an aged-volume client writes 2 blocks at a time, and each
// volume's manager rotates a ring of 2 snapshots (besides the base) every
// 2 ms.
const (
	agedOpBlocks = 2
	agedMaxSnaps = 2
	agedThink    = 2 * wafl.Millisecond
)

// DefaultAgedVol fills two volumes to 75% and ages them to ~82% occupancy
// (active + snapshot-held) with one pinned base snapshot each. Overwrites —
// during aging and measurement alike — are confined to the first AgeSpan
// fbns of each file: with the base snapshot pinning every overwritten
// original forever, the snapshot-held set grows with the count of distinct
// fbns ever rewritten, and an unbounded span would eat the volume's entire
// free space mid-run.
func DefaultAgedVol() AgedVol {
	return AgedVol{Clients: 48, FileBlocks: 24576, FilesPerV: 8,
		Volumes: 2, AgeRounds: 3, AgePerRound: 1024, AgeSpan: 2560}
}

// Configure gives cfg the system shape the aged volumes need: Volumes
// volumes of 2^18 blocks (8 vregions, aged to ~84 % occupancy), on drives
// with physical headroom for the aged image.
func (w AgedVol) Configure(cfg *wafl.Config) {
	cfg.Volumes = w.Volumes
	cfg.VolumeBlocks = 1 << 18
	cfg.DriveBlocks = 131072
}

// Attach prefills, snapshots, and ages the volumes, then spawns the writer
// and snapshot-manager clients. Aging happens in simulated time before the
// caller starts the measurement clock.
func (w AgedVol) Attach(sys *wafl.System) {
	flush := func(stage string) {
		if err := sys.Flush(); err != nil {
			panic(fmt.Sprintf("agedvol %s: %v", stage, err))
		}
	}
	// Dense prefill: FilesPerV files per volume, shuffled so the aged frees
	// scatter from the first overwrite.
	inos := make([][]uint64, w.Volumes)
	for v := 0; v < w.Volumes; v++ {
		for k := 0; k < w.FilesPerV; k++ {
			ino := sys.CreateFileDirect(v, w.FileBlocks)
			sys.Prewrite(v, ino, w.FileBlocks, true)
			inos[v] = append(inos[v], ino)
		}
	}
	flush("prefill")
	// The base snapshot pins the prefill image: every original block
	// overwritten from here on stays summary-held for the whole run.
	for v := 0; v < w.Volumes; v++ {
		sys.SnapCreateDirect(v)
	}
	flush("base snapshot")
	// Aging: overwrite under a rotating ring snapshot, deleting the previous
	// one each round. Blocks written in round k and overwritten in round k+1
	// are held only by the ring — deleting it frees them, scattered through
	// round k's allocation range.
	ring := make([]uint64, w.Volumes)
	for r := 0; r < w.AgeRounds; r++ {
		for v := 0; v < w.Volumes; v++ {
			prev := ring[v]
			ring[v] = sys.SnapCreateDirect(v)
			for _, ino := range inos[v] {
				sys.AgeOverwrite(v, ino, w.AgePerRound, w.AgeSpan)
			}
			if prev != 0 {
				sys.SnapDeleteDirect(v, prev)
			}
		}
		flush(fmt.Sprintf("age round %d", r))
	}
	for v := 0; v < w.Volumes; v++ {
		if ring[v] != 0 {
			sys.SnapDeleteDirect(v, ring[v])
		}
	}
	flush("age cleanup")

	// Steady state: random overwrites plus a per-volume manager rotating a
	// ring of agedMaxSnaps. The base snapshot is never deleted, so at least
	// one live snapshot holds the aged fragmentation in place throughout.
	for i := 0; i < w.Clients; i++ {
		vol := i % w.Volumes
		ino := inos[vol][i%w.FilesPerV]
		i := i
		sys.ClientThread(fmt.Sprintf("aged-client-%d", i), func(c *wafl.ClientCtx) {
			span := int64(w.AgeSpan) - agedOpBlocks
			for c.Alive() {
				c.Write(vol, ino, wafl.FBN(c.Rand(span)), agedOpBlocks)
			}
		})
	}
	for v := 0; v < w.Volumes; v++ {
		v := v
		sys.ClientThread(fmt.Sprintf("aged-snap-manager-%d", v), func(c *wafl.ClientCtx) {
			var ring []uint64
			for c.Alive() {
				if len(ring) >= agedMaxSnaps {
					c.SnapDelete(v, ring[0])
					ring = ring[1:]
				}
				ring = append(ring, c.SnapCreate(v))
				c.Think(agedThink)
			}
		})
	}
}
