package main

import (
	"fmt"

	"wafl"
	"wafl/workload"
)

// runLadder runs the overload_burst rate ladder: each rung is a fresh
// system under the open-loop workload at one constant arrival rate. A rung
// passes when the latency-sensitive p99.9 sojourn time meets the SLO and
// the backlog (arrivals not yet completed, shed or dropped) has not grown
// between the midpoint and the end by more than the ops the worker pools
// can hold in service at once.
func runLadder(spec legSpec) legResult {
	res := legResult{Sim: map[string]float64{}, Host: map[string]float64{}, Info: map[string]float64{}}
	rung := ladderRung
	if spec.Quick {
		rung = 10 * wafl.Millisecond
	}
	var best float64
	for _, rate := range ladderRungs {
		sys, err := wafl.NewSystem(overloadConfig(spec.Seed))
		if err != nil {
			res.fail("ladder: NewSystem: %v", err)
			return res
		}
		w := workload.DefaultOpenLoop()
		w.Phases = nil
		w.RatePerSec = rate
		if spec.Quick {
			w.Streams = 200
		}
		w.Attach(sys)
		backlog := func() int64 { return int64(w.Arrivals) - int64(w.Completed) - int64(w.Dropped) }
		sys.Run(rung / 2)
		mid := backlog()
		sys.Run(rung / 2)
		end := backlog()
		p999 := wafl.Duration(w.LSLat.Quantile(0.999))
		pass := p999 <= ladderSLO && end <= mid+int64(w.Workers+w.BulkWorkers)
		if pass && rate > best {
			best = rate
		}
		key := fmt.Sprintf("ladder.%.0f.", rate)
		res.Info[key+"ls_p50_us"] = micros(w.LSLat.Quantile(0.50))
		res.Info[key+"ls_p999_us"] = p999.Micros()
		res.Info[key+"ls_samples"] = float64(w.LSLat.Count)
		res.Info[key+"shed_frac"] = ratio(float64(w.Shed+w.Dropped), float64(w.Arrivals))
		res.Info[key+"backlog_mid"] = float64(mid)
		res.Info[key+"backlog_end"] = float64(end)
		if pass {
			res.Info[key+"pass"] = 1
		} else {
			res.Info[key+"pass"] = 0
		}
		sys.Shutdown()
	}
	res.Sim["sim_slo_rate_ops_per_s"] = best
	return res
}
