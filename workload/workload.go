// Package workload provides the client workload generators used by the
// paper's evaluation (§V): sequential write and random write from FC-like
// clients (Figs 4-7, 9), an OLTP-style mix (Fig 8), and an NFSv3-style
// mixed operation load over many small files (§V-C).
//
// Each generator attaches closed-loop client threads to a wafl.System; the
// number of clients is the load level.
package workload

import (
	"fmt"

	"wafl"
)

// SeqWrite is the sequential-write workload of §V-A1: each client streams
// large writes through its own file, wrapping at the end — every write
// allocates new blocks and frees the overwritten ones.
type SeqWrite struct {
	Clients    int
	FileBlocks uint64 // per-client file size
	Volumes    int    // spread clients over this many volumes
}

// seqOpBlocks is a sequential write's size: 32 KiB.
const seqOpBlocks = 8

// DefaultSeqWrite matches the mid-range FC testbed shape.
func DefaultSeqWrite() SeqWrite {
	return SeqWrite{Clients: 56, FileBlocks: 8192, Volumes: 4}
}

// Attach creates the files and spawns the client threads.
func (w SeqWrite) Attach(sys *wafl.System) {
	for i := 0; i < w.Clients; i++ {
		vol := i % w.Volumes
		ino := sys.CreateFileDirect(vol, w.FileBlocks)
		i := i
		sys.ClientThread(fmt.Sprintf("seq-client-%d", i), func(c *wafl.ClientCtx) {
			fbn := wafl.FBN(0)
			for c.Alive() {
				c.Write(vol, ino, fbn, seqOpBlocks)
				fbn += seqOpBlocks
				if uint64(fbn)+seqOpBlocks > w.FileBlocks {
					fbn = 0
				}
			}
		})
	}
}

// RandWrite is the random-write workload of §V-A2: small overwrites at
// uniformly random offsets. The frees it generates scatter across the VBN
// space, multiplying allocation-metafile block updates.
type RandWrite struct {
	Clients    int
	FileBlocks uint64
	Volumes    int
}

// randOpBlocks is a random write's size: 8 KiB.
const randOpBlocks = 2

// DefaultRandWrite matches the paper's random-write setup.
func DefaultRandWrite() RandWrite {
	return RandWrite{Clients: 56, FileBlocks: 8192, Volumes: 4}
}

// Attach creates the files — pre-aged with a shuffled prewrite, so every op
// frees blocks and the frees scatter from the first overwrite — and spawns
// the client threads.
func (w RandWrite) Attach(sys *wafl.System) {
	inos := make([]uint64, w.Clients)
	vols := make([]int, w.Clients)
	for i := 0; i < w.Clients; i++ {
		vols[i] = i % w.Volumes
		inos[i] = sys.CreateFileDirect(vols[i], w.FileBlocks)
		sys.Prewrite(vols[i], inos[i], w.FileBlocks, true)
	}
	if err := sys.Flush(); err != nil {
		panic(err)
	}
	for i := 0; i < w.Clients; i++ {
		vol, ino, i := vols[i], inos[i], i
		sys.ClientThread(fmt.Sprintf("rand-client-%d", i), func(c *wafl.ClientCtx) {
			span := int64(w.FileBlocks) - randOpBlocks
			for c.Alive() {
				fbn := wafl.FBN(c.Rand(span))
				c.Write(vol, ino, fbn, randOpBlocks)
			}
		})
	}
}

// ManyFile models a metadata-heavy home-directory workload: each client
// spreads small writes across its own set of small files, so every CP
// freezes and records hundreds of inodes. This is the workload class whose
// CP cost is dominated by the per-volume metadata phases (inode freeze,
// record writes) rather than by buffer cleaning — the phases the parallel
// CP engine fans out across Volume affinities.
type ManyFile struct {
	Clients int
	Volumes int
	// Placed selects cluster-aware placement: instead of striping files
	// round-robin over the first Volumes volumes, every file is placed on
	// the volume chosen by the system's capacity- and load-aware policy
	// (wafl.System.PlaceFile), spreading the working set across all
	// FlexGroup members. With a single member the two are equivalent loads.
	Placed bool
}

// A manyfile client writes one block at a time across its own 16 files of
// 64 blocks.
const (
	manyFilesPer   = 16
	manyFileBlocks = 64
	manyOpBlocks   = 1
)

// DefaultManyFile gives every CP a few hundred dirty inodes per volume.
func DefaultManyFile() ManyFile {
	return ManyFile{Clients: 56, Volumes: 4}
}

// Attach creates the per-client file sets and spawns the client threads.
func (w ManyFile) Attach(sys *wafl.System) {
	for i := 0; i < w.Clients; i++ {
		vols := make([]int, manyFilesPer)
		inos := make([]uint64, manyFilesPer)
		for f := range inos {
			if w.Placed {
				vols[f], inos[f] = sys.PlaceFile(manyFileBlocks)
			} else {
				vols[f] = i % w.Volumes
				inos[f] = sys.CreateFileDirect(vols[f], manyFileBlocks)
			}
		}
		i := i
		sys.ClientThread(fmt.Sprintf("manyfile-client-%d", i), func(c *wafl.ClientCtx) {
			j := 0
			for c.Alive() {
				k := j % manyFilesPer
				fbn := wafl.FBN(c.Rand(manyFileBlocks - manyOpBlocks + 1))
				c.Write(vols[k], inos[k], fbn, manyOpBlocks)
				j++
			}
		})
	}
}

// OLTP models the internal OLTP benchmark of §V-B: latency-sensitive FC
// clients issuing small random writes and reads against a database-like
// working set, with client-side think time so the system can run below
// saturation (the "knee" regime).
type OLTP struct {
	Clients int
	Volumes int
	Think   wafl.Duration // per-op client think time
}

// An OLTP database is one 16384-block file per volume; 60 % of its 2-block
// ops are writes.
const (
	oltpFileBlocks = 16384
	oltpWritePct   = 60
)

// DefaultOLTP matches the Flash Pool testbed shape.
func DefaultOLTP() OLTP {
	return OLTP{Clients: 16, Volumes: 2, Think: 200 * wafl.Microsecond}
}

// Attach creates and ages the database files and spawns the client threads.
func (w OLTP) Attach(sys *wafl.System) {
	inos := make([]uint64, w.Volumes)
	for v := 0; v < w.Volumes; v++ {
		inos[v] = sys.CreateFileDirect(v, oltpFileBlocks)
		sys.Prewrite(v, inos[v], oltpFileBlocks, true)
	}
	if err := sys.Flush(); err != nil {
		panic(err)
	}
	for i := 0; i < w.Clients; i++ {
		vol := i % w.Volumes
		ino := inos[vol]
		i := i
		sys.ClientThread(fmt.Sprintf("oltp-client-%d", i), func(c *wafl.ClientCtx) {
			for c.Alive() {
				fbn := wafl.FBN(c.Rand(oltpFileBlocks - 2))
				if int(c.Rand(100)) < oltpWritePct {
					c.Write(vol, ino, fbn, 2)
				} else {
					c.Read(vol, ino, fbn, 2)
				}
				if w.Think > 0 {
					c.Think(w.Think)
				}
			}
		})
	}
}

// SnapChurn overlays snapshot churn on a random-overwrite load: writer
// clients overwrite their files steadily while one manager client per volume
// maintains a rotating ring of snapshots — create one every SnapEvery ops,
// delete the oldest once MaxSnaps are live. Overwrites under a snapshot
// cannot free their old blocks (the summary map holds them), so the workload
// exercises the allocator's free = !active && !summary path, summary-held
// write suppression in the cleaner, and steady reclamation at snapshot
// delete — the snapshot analogue of the paper's aged-volume setting.
type SnapChurn struct {
	Clients    int
	FileBlocks uint64
	Volumes    int
	SnapEvery  int           // manager think interval, in write-op units
	MaxSnaps   int           // live snapshots per volume before rotation
	Think      wafl.Duration // manager pause between snapshot ops
}

// DefaultSnapChurn keeps a ring of 4 snapshots per volume under steady
// random overwrites.
func DefaultSnapChurn() SnapChurn {
	return SnapChurn{Clients: 32, FileBlocks: 8192, Volumes: 4,
		SnapEvery: 64, MaxSnaps: 4, Think: 2 * wafl.Millisecond}
}

// Attach creates and ages the files, spawns the writer clients (RandWrite's),
// and one snapshot-manager client per volume.
func (w SnapChurn) Attach(sys *wafl.System) {
	RandWrite{Clients: w.Clients, FileBlocks: w.FileBlocks, Volumes: w.Volumes}.Attach(sys)
	for v := 0; v < w.Volumes; v++ {
		v := v
		sys.ClientThread(fmt.Sprintf("snap-manager-%d", v), func(c *wafl.ClientCtx) {
			var ring []uint64
			for c.Alive() {
				if len(ring) >= w.MaxSnaps {
					c.SnapDelete(v, ring[0])
					ring = ring[1:]
				}
				ring = append(ring, c.SnapCreate(v))
				// Pace the churn: roughly one create per SnapEvery write
				// ops per client, approximated with think time.
				c.Think(wafl.Duration(w.SnapEvery) * w.Think)
			}
		})
	}
}

// NFSMix models the §V-C benchmark: a mix of NFSv3 reads, writes, and
// metadata operations across a large number of inodes — many dirty inodes
// with few dirty buffers each, the case batched inode cleaning exists for.
type NFSMix struct {
	Clients    int
	FilesPerV  int
	FileBlocks uint64
	Volumes    int
	Think      wafl.Duration
}

// DefaultNFSMix matches the SAS-drive testbed shape.
func DefaultNFSMix() NFSMix {
	return NFSMix{Clients: 64, FilesPerV: 400, FileBlocks: 64, Volumes: 4, Think: 100 * wafl.Microsecond}
}

// Attach creates the file population and spawns the client threads.
func (w NFSMix) Attach(sys *wafl.System) {
	files := make([][]uint64, w.Volumes)
	for v := 0; v < w.Volumes; v++ {
		for k := 0; k < w.FilesPerV; k++ {
			files[v] = append(files[v], sys.CreateFileDirect(v, w.FileBlocks))
		}
	}
	for i := 0; i < w.Clients; i++ {
		vol := i % w.Volumes
		i := i
		sys.ClientThread(fmt.Sprintf("nfs-client-%d", i), func(c *wafl.ClientCtx) {
			pop := files[vol]
			for c.Alive() {
				ino := pop[c.Rand(int64(len(pop)))]
				fbn := wafl.FBN(c.Rand(int64(w.FileBlocks - 2)))
				switch r := c.Rand(100); {
				case r < 40: // write: 1-2 blocks of a small file
					c.Write(vol, ino, fbn, 1+int(c.Rand(2)))
				case r < 75: // read
					c.Read(vol, ino, fbn, 1)
				default: // metadata op
					c.Getattr(vol, ino)
				}
				if w.Think > 0 {
					c.Think(w.Think)
				}
			}
		})
	}
}
