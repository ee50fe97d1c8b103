package sim

import (
	"fmt"

	"wafl/internal/obs"
)

// Category identifies a CPU accounting bucket. Experiments report simulated
// core usage per category, mirroring the paper's instrumented-kernel
// measurements (e.g. "2.35 infrastructure + 3.88 cleaner cores").
type Category int

// CPU accounting categories used throughout the system.
const (
	CatOther      Category = iota // uncategorized work
	CatClient                     // client protocol + op processing in stripe affinities
	CatWaffinity                  // Waffinity scheduler dispatch overhead
	CatCleaner                    // inode cleaner threads (VBN assignment)
	CatInfra                      // write-allocation infrastructure (metafile work)
	CatCP                         // consistency point orchestration
	CatRAID                       // parity computation and I/O assembly
	NumCategories                 // sentinel: number of categories
)

// String returns the human-readable category name.
func (c Category) String() string {
	switch c {
	case CatOther:
		return "other"
	case CatClient:
		return "client"
	case CatWaffinity:
		return "waffinity"
	case CatCleaner:
		return "cleaner"
	case CatInfra:
		return "infra"
	case CatCP:
		return "cp"
	case CatRAID:
		return "raid"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Busy is cumulative CPU time per category, one field per Category.
type Busy struct {
	Other, Client, Waffinity, Cleaner, Infra, CP, RAID Duration
}

// Stats are the scheduler's counters since New: CPU time per category,
// coroutine switches, and its wait distributions, one sample per wait, in
// nanoseconds. The histograms are the live ones; a caller that keeps them
// copies them (wafl.Stats does).
type Stats struct {
	Busy     Busy
	Switches uint64 // events that resumed a thread other than their dispatcher

	RunQueueWait  *obs.Histogram // a CPU burst's wait for a free core
	MutexWait     *obs.Histogram // a contended Mutex.Lock's wait for the holder
	WaitQueueWait *obs.Histogram // a WaitQueue wait, from parking to the wake-up
}
