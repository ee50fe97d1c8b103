// Package allocs counts the heap objects a piece of code allocates, exactly,
// for the tests that hold a path to a fixed count. testing.AllocsPerRun
// divides the count by its runs in integer arithmetic, so up to runs-1
// objects read as 0; Count returns the objects themselves.
package allocs

import "runtime"

// Count calls fn once to warm it up, then runs more times, and returns the
// heap objects those runs allocated: the change in runtime.MemStats.Mallocs,
// read after a collection so that a cycle still running does not count its
// own. Like testing.AllocsPerRun it measures at GOMAXPROCS 1.
func Count(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
