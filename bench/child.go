package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"wafl"
	"wafl/workload"
)

// legSpec tells a child process which single leg to run. The parent passes
// it as JSON in the legEnv environment variable; a child inherits nothing
// else from the parent's command line.
type legSpec struct {
	Workload string `json:"workload"`
	Leg      string `json:"leg"` // timed | profile | trace | kernels | ladder
	Seed     int64  `json:"seed"`
	// Quick shrinks the simulated warm-up and window to 5 ms / 10 ms (the
	// tier-1 smoke test); results are then not comparable to a full run.
	Quick bool `json:"quick,omitempty"`
	// Check runs Stop -> Quiesce -> Fsck -> content verification after the
	// measured window.
	Check  bool   `json:"check,omitempty"`
	OutDir string `json:"out_dir"`
}

// legResult is what a child prints on stdout.
type legResult struct {
	// Sim holds every metric that is exact for a seed: the determinism gate
	// requires all legs of a workload to agree on each of them bit for bit.
	Sim map[string]float64 `json:"sim"`
	// Host holds host-clock and heap metrics; they vary run to run.
	Host map[string]float64 `json:"host"`
	// Info holds sample counts and other context that is not a metric.
	Info map[string]float64 `json:"info,omitempty"`

	Attempted uint64 `json:"attempted"` // client ops attempted in the window
	Refused   uint64 `json:"refused"`   // shed by admission control + dropped at queue cap
	// Failed counts correctness failures: fsck errors, content mismatches,
	// acknowledged writes missing after crash-recover.
	Failed uint64   `json:"failed"`
	Errors []string `json:"errors,omitempty"`
	Spans  []span   `json:"spans,omitempty"`
}

func (r *legResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// span is one host-side interval recorded by bench around a call into the
// facade: wall duration plus the user and system CPU the whole process
// (all threads, GC included) spent inside it.
type span struct {
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // wall seconds since child start
	WallS  float64 `json:"wall_s"`
	UserS  float64 `json:"user_s"`
	SysS   float64 `json:"sys_s"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

// cpuTimes returns the process's cumulative user and system CPU seconds and
// its peak resident set in MiB (Linux reports ru_maxrss in KiB).
func cpuTimes() (user, sys, maxRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime), float64(ru.Maxrss) / 1024
}

func (r *recorder) span(name string, fn func()) span {
	u0, s0, _ := cpuTimes()
	w0 := time.Now()
	fn()
	wall := time.Since(w0)
	u1, s1, _ := cpuTimes()
	sp := span{Name: name, StartS: w0.Sub(r.t0).Seconds(), WallS: wall.Seconds(), UserS: u1 - u0, SysS: s1 - s0}
	r.spans = append(r.spans, sp)
	return sp
}

// edge is every cumulative counter bench diffs across the measured window,
// read through the facade's public accessors.
type edge struct {
	infra      wafl.InfraCounters
	cp         wafl.CPStats
	bc         wafl.BCacheStats
	shed       uint64
	admitDelay wafl.Duration
	events     uint64

	// open loop only
	arrivals, completed, olShed, dropped uint64
	ls, bulk                             *wafl.TraceHistogram
}

func takeEdge(sys *wafl.System, ol *workload.OpenLoop) edge {
	e := edge{infra: sys.Counters(), cp: sys.CPStats(), bc: sys.BCacheStats(), events: sys.Events()}
	e.shed, e.admitDelay = sys.AdmissionStats()
	if ol != nil {
		e.arrivals, e.completed, e.olShed, e.dropped = ol.Arrivals, ol.Completed, ol.Shed, ol.Dropped
		e.ls, e.bulk = ol.LSLat.Clone(), ol.BulkLat.Clone()
	}
	return e
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

// simWindows returns the leg's simulated warm-up and window.
func (wl *workloadDef) simWindows(quick bool) (warmup, window wafl.Duration) {
	if !quick {
		return wl.warmup, wl.window
	}
	return 5 * wafl.Millisecond, 10 * wafl.Millisecond
}

// runWorkloadLeg builds the system, attaches the load, warms up, measures
// one window and collects every metric the leg kind provides.
func runWorkloadLeg(spec legSpec) (res legResult) {
	wl := findWorkload(spec.Workload)
	if wl == nil {
		res.fail("unknown workload %q", spec.Workload)
		return res
	}
	res.Sim, res.Host, res.Info = map[string]float64{}, map[string]float64{}, map[string]float64{}
	rec := &recorder{t0: time.Now()}
	defer func() { res.Spans = rec.spans }()

	cfg := wl.config(spec.Seed)
	cfg.Trace = spec.Leg == "trace"
	if spec.Quick {
		cfg.TraceEvents = 1 << 14 // a small ring keeps the smoke test's timeline export cheap
	}
	warmup, window := wl.simWindows(spec.Quick)

	var sys *wafl.System
	var err error
	if wl.hostWarmup {
		rec.span("bench.host_warmup", func() {
			if sys, err = wafl.NewSystem(cfg); err == nil {
				wl.attach(sys, spec.Quick)
				sys.Run(warmup + window)
				sys.Shutdown()
				sys = nil
				runtime.GC() // so the discarded copy never counts towards peak RSS
			}
		})
	}
	newSp := rec.span("facade.newsystem", func() { sys, err = wafl.NewSystem(cfg) })
	if err != nil {
		res.fail("NewSystem: %v", err)
		return res
	}
	var ol *workload.OpenLoop
	attachSp := rec.span("workload.attach", func() { ol = wl.attach(sys, spec.Quick) })
	warmSp := rec.span("facade.warmup", func() { sys.Run(warmup) })
	setupUser, _, _ := cpuTimes()

	var traceStart map[string]*wafl.TraceHistogram
	if tr := sys.Tracer(); tr != nil {
		traceStart = map[string]*wafl.TraceHistogram{}
		for _, h := range tr.Histograms() {
			traceStart[h.Name] = h.Clone()
		}
	}
	e0 := takeEdge(sys, ol)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var profFile *os.File
	profPath := filepath.Join(spec.OutDir, wl.name+".cpu.pprof")
	if spec.Leg == "profile" {
		profFile, err = os.Create(profPath)
		if err == nil {
			err = pprof.StartCPUProfile(profFile)
		}
		if err != nil {
			res.fail("cpu profile: %v", err)
			return res
		}
	}
	var r wafl.Results
	winSp := rec.span("facade.window", func() { r = sys.Measure(0, window) })
	if profFile != nil {
		pprof.StopCPUProfile()
		if err := profFile.Close(); err != nil {
			res.fail("cpu profile: %v", err)
		}
	}
	_, _, peakRSS := cpuTimes()
	runtime.ReadMemStats(&ms1)
	e1 := takeEdge(sys, ol)

	simMetrics(&res, r, e0, e1, window, ol)
	ops, events := res.Info["sim_ops"], res.Sim["sim.events"]

	h := res.Host
	h["setup_s"] = setupUser
	h["host_cpu_us_per_simop"] = ratio(winSp.UserS*1e6, ops)
	h["host_alloc_kb_per_simop"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, ops)
	h["host_peak_rss_mb"] = peakRSS
	h["facade.newsystem_cpu_s"] = newSp.UserS
	h["workload.attach_cpu_s"] = attachSp.UserS
	h["facade.warmup_cpu_s"] = warmSp.UserS
	h["facade.window_cpu_s"] = winSp.UserS
	h["facade.window_wall_s"] = winSp.WallS
	h["facade.window_sys_s"] = winSp.SysS
	h["host.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	h["host.mallocs_per_simop"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), ops)
	h["host.ns_per_event"] = ratio(winSp.UserS*1e9, events)

	if spec.Leg == "profile" {
		shares, samples, err := profileShares(profPath)
		if err != nil {
			res.fail("cpu profile: %v", err)
		}
		for layer, s := range shares {
			h["host_cpu_share."+layer] = s
		}
		res.Info["profile_samples"] = float64(samples)
	}
	if tr := sys.Tracer(); tr != nil {
		traceMetrics(&res, tr, traceStart)
		if err := writeTraceArtifacts(sys, spec.OutDir, wl.name); err != nil {
			res.fail("trace artifacts: %v", err)
		}
	}
	if spec.Check {
		checkSystem(&res, rec, wl, sys, cfg.PayloadBytes)
	}
	sys.Shutdown()
	if spec.Leg == "trace" {
		sys = nil
		runtime.GC() // drop the first system before building the witness one
		checkDurability(&res, rec, wl, spec)
	}
	return res
}

// simMetrics fills the simulated-clock metrics: the end-to-end sim_* set and
// the per-layer counters, all window deltas of facade accessors.
func simMetrics(res *legResult, r wafl.Results, e0, e1 edge, window wafl.Duration, ol *workload.OpenLoop) {
	s := res.Sim
	secs := window.Seconds()
	ops := float64(r.Ops)
	samples := float64(r.Ops)
	res.Attempted = r.Ops
	if ol == nil {
		for _, k := range []string{"workload.arrivals", "workload.ls_queue_max", "workload.bulk_queue_max", "workload.bulk_lat_p999_us"} {
			s[k] = 0 // open-loop metrics: not applicable to a closed loop
		}
		s["sim_ops_per_s"] = r.OpsPerSec
		s["sim_lat_p50_us"] = r.LatP50.Micros()
		s["sim_lat_p99_us"] = r.LatP99.Micros()
		s["sim_lat_p999_us"] = r.LatP999.Micros()
	} else {
		// Open loop: latency is the latency-sensitive class's sojourn time
		// from the scheduled arrival; ops are arrivals served in the window
		// (Completed counts shed ops too).
		ls, bulk := ol.LSLat.Delta(e0.ls), ol.BulkLat.Delta(e0.bulk)
		shed := e1.olShed - e0.olShed
		ops = float64(e1.completed - e0.completed - shed)
		samples = float64(ls.Count)
		res.Attempted = e1.arrivals - e0.arrivals
		res.Refused = shed + e1.dropped - e0.dropped
		s["sim_ops_per_s"] = ops / secs
		s["sim_lat_p50_us"] = micros(ls.Quantile(0.50))
		s["sim_lat_p99_us"] = micros(ls.Quantile(0.99))
		s["sim_lat_p999_us"] = micros(ls.Quantile(0.999))
		s["workload.arrivals"] = float64(res.Attempted)
		s["workload.ls_queue_max"] = float64(ol.LSQueueMax)
		s["workload.bulk_queue_max"] = float64(ol.BulkQueueMax)
		s["workload.bulk_lat_p999_us"] = micros(bulk.Quantile(0.999))
	}
	res.Info["sim_ops"] = ops
	res.Info["sim_lat_samples"] = samples
	s["sim_cpu_us_per_op"] = ratio(r.Cores.Total()*window.Micros(), ops)
	s["failed_ops_frac"] = ratio(float64(res.Refused), float64(res.Attempted))
	s["served_ops_frac"] = 1 - s["failed_ops_frac"]

	s["facade.client_cores"] = r.Cores.Client
	s["waffinity.cores"] = r.Cores.Waffinity
	s["core.cleaner_cores"] = r.Cores.Cleaner
	s["core.infra_cores"] = r.Cores.Infra
	s["cp.cores"] = r.Cores.CP
	s["raid.cores"] = r.Cores.RAID
	s["sim.other_cores"] = r.Cores.Other

	in0, in1 := e0.infra, e1.infra
	s["core.cleaners_active"] = float64(r.Cleaners)
	s["core.fill_words_per_bucket"] = ratio(float64(in1.FillWords-in0.FillWords), float64(in1.BucketsFilled-in0.BucketsFilled))
	s["core.vfill_words_per_vbucket"] = ratio(float64(in1.VFillWords-in0.VFillWords), float64(in1.VBucketsFilled-in0.VBucketsFilled))
	s["core.get_waits"] = float64(in1.GetWaits - in0.GetWaits)
	s["core.blocks_per_tetris"] = ratio(float64(in1.TetrisBlocks-in0.TetrisBlocks), float64(in1.TetrisesSent-in0.TetrisesSent))
	s["core.windows_skipped"] = float64(in1.WindowsSkipped - in0.WindowsSkipped)

	c0, c1 := e0.cp, e1.cp
	cps := float64(c1.CPs - c0.CPs)
	s["cp.count"] = cps
	s["cp.avg_ms"] = ratio((c1.TotalDuration - c0.TotalDuration).Millis(), cps)
	s["cp.longest_ms"] = c1.LongestDuration.Millis() // cumulative maximum, not a window delta
	s["cp.clean_ms_avg"] = ratio((c1.CleanDuration - c0.CleanDuration).Millis(), cps)
	s["cp.meta_ms_avg"] = ratio((c1.MetaDuration - c0.MetaDuration).Millis(), cps)
	s["cp.back_to_back"] = float64(c1.BackToBack - c0.BackToBack)
	s["cp.inodes_cleaned"] = float64(c1.InodesCleaned - c0.InodesCleaned)
	s["cp.amap_writes"] = float64(c1.AmapWrites - c0.AmapWrites)
	s["snap.created"] = float64(c1.SnapsCreated - c0.SnapsCreated)
	s["snap.deleted"] = float64(c1.SnapsDeleted - c0.SnapsDeleted)
	s["snap.reclaimed_blocks"] = float64(c1.SnapReclaimed - c0.SnapReclaimed)

	s["nvlog.stalls"] = float64(r.Stalls)
	s["nvlog.stall_ms"] = r.StallTime.Millis()
	s["nvlog.shed_ops"] = float64(e1.shed - e0.shed)
	s["nvlog.admit_delay_ms"] = (e1.admitDelay - e0.admitDelay).Millis()
	s["raid.full_stripe_frac"] = r.FullStripe

	hits, misses := float64(e1.bc.Hits-e0.bc.Hits), float64(e1.bc.Misses-e0.bc.Misses)
	s["bcache.hit_frac"] = ratio(hits, hits+misses)
	s["bcache.evictions"] = float64(e1.bc.Evictions - e0.bc.Evictions)

	events := float64(e1.events - e0.events)
	s["sim.events"] = events
	s["sim.events_per_simop"] = ratio(events, ops)
}

// traceMetrics reads the tracer's simulated-time histograms (the spans the
// program already records when Config.Trace is on), windowed by diffing
// against the clones taken at the start of the window.
func traceMetrics(res *legResult, tr *wafl.Tracer, start map[string]*wafl.TraceHistogram) {
	windowed := map[string]*wafl.TraceHistogram{}
	for _, h := range tr.Histograms() {
		windowed[h.Name] = h.Delta(start[h.Name])
	}
	// merged folds every histogram whose name starts with prefix into one.
	merged := func(prefix string) *wafl.TraceHistogram {
		m := wafl.NewHistogram(prefix)
		for name, h := range windowed {
			if strings.HasPrefix(name, prefix) {
				m.Merge(h)
			}
		}
		return m
	}
	qUs := func(prefix string, q float64) float64 { return micros(merged(prefix).Quantile(q)) }
	sumMs := func(prefix string) float64 { return float64(merged(prefix).Sum) / 1e6 }

	s := res.Sim
	s["sim.runq_wait_us_p99"] = qUs("sim.runq_wait", 0.99)
	s["sim.mutex_wait_ms_total"] = sumMs("mutex.wait:")
	s["sim.waitq_block_ms_total"] = sumMs("waitq.block:")
	s["waffinity.queue_wait_us_p50"] = qUs("waffinity.queue_wait", 0.50)
	s["waffinity.queue_wait_us_p99"] = qUs("waffinity.queue_wait", 0.99)
	s["core.get_wait_us_p99"] = qUs("infra.get_wait", 0.99)
	s["core.vget_wait_us_p99"] = qUs("infra.vget_wait", 0.99)
	s["core.cleaner_batch_us_p50"] = qUs("cleaner.batch", 0.50)
	s["storage.ios"] = float64(merged("storage.io_service:").Count)
	s["storage.io_service_us_p50"] = qUs("storage.io_service:", 0.50)
	s["storage.io_latency_us_p99"] = qUs("storage.io_latency:", 0.99)
	s["facade.write_us_p50"] = qUs("client.write", 0.50)
	s["facade.read_us_p50"] = qUs("client.read", 0.50)
	s["facade.stall_ms_total"] = sumMs("client.stall")
	s["facade.admit_ms_total"] = sumMs("client.admit")
	s["facade.bcache_miss_us_p50"] = qUs("client.bcache.miss", 0.50)
	s["obs.trace_events"] = float64(tr.Len()) + float64(tr.Dropped())
	s["obs.trace_dropped"] = float64(tr.Dropped())
}

// writeTraceArtifacts writes the Perfetto timeline and the full histogram
// report (including the per-phase cp.phase.* families) next to the results.
func writeTraceArtifacts(sys *wafl.System, dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return err
	}
	if err := sys.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	report := sys.TraceReport() + "\n" + sys.CPPhaseReport()
	return os.WriteFile(filepath.Join(dir, name+".trace.hist.txt"), []byte(report), 0o644)
}

// childMain runs the leg named by the environment and prints its result.
func childMain(specJSON string) int {
	var spec legSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad leg spec:", err)
		return 2
	}
	var res legResult
	switch spec.Leg {
	case "kernels":
		res = runKernels(spec.Quick)
	case "ladder":
		res = runLadder(spec)
	default:
		res = runWorkloadLeg(spec)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	return 0
}
