// Quickstart: build a simulated storage server, run a write workload
// through the White Alligator allocator, and read the same metrics the
// paper reports — throughput, latency, and per-component core usage.
package main

import (
	"fmt"

	"wafl"
)

func main() {
	// A 20-core all-SSD system, like the paper's mid-range testbed.
	cfg := wafl.DefaultConfig()
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		panic(err)
	}

	// One file per volume, one sequential-write client per file.
	for vol := 0; vol < cfg.Volumes; vol++ {
		ino := sys.CreateFileDirect(vol, 8192)
		vol := vol
		sys.ClientThread(fmt.Sprintf("client-%d", vol), func(c *wafl.ClientCtx) {
			fbn := wafl.FBN(0)
			for c.Alive() {
				c.Write(vol, ino, fbn, 8) // one 32 KiB write op
				fbn = (fbn + 8) % 8000
			}
		})
	}

	// Run 100ms of simulated warmup, then measure 400ms.
	res := sys.Measure(100*wafl.Millisecond, 400*wafl.Millisecond)
	fmt.Println("results:", res)
	fmt.Printf("write allocation used %.2f cores (%.2f cleaner + %.2f infrastructure)\n",
		res.Cores.WriteAllocation(), res.Cores.Cleaner, res.Cores.Infra)
	fmt.Printf("%d consistency points committed, %.0f%% full-stripe writes\n",
		res.CPs, res.FullStripe*100)
	fmt.Printf("every layer's counters over the window:\n%v\n", res.Stats)

	// The committed image is a real file system: check it.
	if err := sys.Quiesce(); err != nil {
		panic(err)
	}
	fmt.Println(sys.Fsck())
}
