package wafl_test

import (
	"runtime"
	"testing"

	"wafl"
	"wafl/workload"
)

// TestSeqWriteHostAllocBudget guards the host cost of the data path where
// `go test ./...` sees it: on the default configuration (64-byte payloads)
// an 8-block sequential write may allocate at most 8 KiB of host heap.
// TotalAlloc is a count, not a timing — it repeats to 0.01 % (bench/README)
// — and the figure sits near 7 KiB/op while block images stay trimmed and
// the buffer index stays map-free; materialising the zero tail of the eight
// L0 images alone adds 32 KiB.
func TestSeqWriteHostAllocBudget(t *testing.T) {
	const budgetKiB = 8
	sys, err := wafl.NewSystem(wafl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	workload.DefaultSeqWrite().Attach(sys)
	sys.Run(50 * wafl.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := sys.Measure(0, 50*wafl.Millisecond)
	runtime.ReadMemStats(&after)
	if res.Ops == 0 {
		t.Fatal("no ops completed in the window")
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Ops)
	t.Logf("%.2f KiB/op over %d ops", perOp, res.Ops)
	if perOp > budgetKiB {
		t.Fatalf("seqwrite allocates %.1f KiB of host heap per op, budget %d KiB/op", perOp, budgetKiB)
	}
}
