package core

// AAPolicy selects how the infrastructure picks the next Allocation Area.
type AAPolicy int

// Allocation Area selection policies.
const (
	// AAMostFree is the paper's policy: the AA with the most free blocks,
	// maximizing full-stripe writes and contiguity (§IV-D).
	AAMostFree AAPolicy = iota
	// AAFirstFit takes the lowest AA with space — the ablation baseline.
	AAFirstFit
	// AARoundRobin cycles AAs regardless of occupancy.
	AARoundRobin
)

func (p AAPolicy) String() string {
	switch p {
	case AAMostFree:
		return "most-free"
	case AAFirstFit:
		return "first-fit"
	case AARoundRobin:
		return "round-robin"
	default:
		return "unknown"
	}
}

// Options configures the White Alligator allocator. The zero value is not
// usable; start from DefaultOptions.
type Options struct {
	// ChunkBlocks is the bucket size and tetris depth in blocks: the run
	// of consecutive DBNs a bucket covers on one drive. "Typically a
	// multiple of 64 blocks" (§IV-C). Setting it to 1 degenerates to
	// one-VBN-at-a-time allocation — legal, and the bucket-size ablation
	// measures what that costs.
	ChunkBlocks int

	// InfraParallel routes infrastructure messages to per-range Waffinity
	// affinities (true, the White Alligator design) or serializes them all
	// through the single per-aggregate/per-volume VBN affinity (false, the
	// pre-White-Alligator instrumented baseline of §V-A).
	InfraParallel bool

	// MaxCleaners is the cleaner-thread pool size.
	MaxCleaners int
	// InitialCleaners is how many start active (Dynamic adjusts it).
	InitialCleaners int
	// Dynamic enables the 50ms utilization-driven tuner of §V-B.
	Dynamic bool

	// BatchedCleaning packs up to batchSize small inodes (at most
	// batchBufferLimit frozen buffers each) into one cleaning job to
	// amortize per-message overhead (§V-C).
	BatchedCleaning bool

	// SplitLargeFiles lets multiple cleaner threads work on one inode by
	// carving the L0 range of a file with at least splitThreshold frozen
	// L0s into splitJobs jobs (§V-C, last paragraph).
	SplitLargeFiles bool

	// AASelection picks the Allocation Area policy.
	AASelection AAPolicy

	// EqualProgress inserts refilled buckets into the cache only as whole
	// drive sets (the paper's synchronized insertion, objective 3). When
	// false (ablation), each bucket is inserted as soon as it refills.
	EqualProgress bool

	// LooseAccounting stages counter updates in per-thread tokens flushed
	// in batches (§III-C). When false (ablation), every update takes the
	// global counter lock.
	LooseAccounting bool

	// HierarchicalFree drives volume region selection and bucket fills from
	// the incrementally maintained free-space index (per-vregion allocatable
	// counts plus the free-words summary bitmap), so fill cost scales with
	// blocks found instead of address space scanned. When false (ablation /
	// pre-change baseline), region selection recounts each region's full
	// span and fills grind word-by-word through activemap and summary.
	HierarchicalFree bool

	// ParallelCP fans the per-volume CP phases (freeze, zombie block walks,
	// snapshot capture, inode-record writes, snapdir rewrites) out across
	// the Waffinity Volume affinities instead of running them inline on the
	// cp-engine thread, shrinking the serial section that back-to-back
	// stalls wait on. When false (ablation / pre-change baseline), every
	// phase runs serially on the engine thread.
	ParallelCP bool
}

// Tuning values every configuration in the tree uses unchanged.
const (
	// volBucketsReady is the per-volume target of ready virtual buckets.
	volBucketsReady = 12
	// stageSize is the free-stage capacity before a commit message is sent
	// (in blocks).
	stageSize = 64
	// windowsAhead is how many tetris windows per RAID group the
	// infrastructure keeps filled in the bucket cache.
	windowsAhead = 8
	// batchSize is the most small inodes one batched cleaning job takes.
	batchSize = 8
	// batchBufferLimit is the most frozen buffers an inode may have and
	// still be eligible for batching.
	batchBufferLimit = 16
	// splitThreshold is the minimum frozen L0 count at which a file is split.
	splitThreshold = 2048
	// splitJobs is the number of range jobs a split file is carved into.
	splitJobs = 4
)

// DefaultOptions returns the standard White Alligator configuration.
func DefaultOptions() Options {
	return Options{
		ChunkBlocks:      64,
		InfraParallel:    true,
		MaxCleaners:      6,
		InitialCleaners:  4,
		Dynamic:          false,
		BatchedCleaning:  false,
		SplitLargeFiles:  true,
		AASelection:      AAMostFree,
		EqualProgress:    true,
		LooseAccounting:  true,
		HierarchicalFree: true,
		ParallelCP:       true,
	}
}
