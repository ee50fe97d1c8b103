// Command bench is the repository's benchmark: four workloads, two clocks.
//
//	go run ./bench                      every workload, all legs, bench/out/results.json
//	go run ./bench -workload nfsmix     one workload
//	go run ./bench compare A.json B.json
//
// The parent process runs each leg of each workload in a fresh child
// process, one at a time, and merges what they report. See README.md in
// this directory for the metric dictionary and the prediction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// legEnv carries a child's legSpec; its presence is what makes a process a
// child.
const legEnv = "WAFL_BENCH_LEG"

// manifestPath is relative to the repository root, where the benchmark is
// run from.
const manifestPath = "BENCHMARK.json"

// manifest mirrors BENCHMARK.json, the declaration of every workload and
// metric. The program reads names, units, directions and bounds from it
// rather than repeating them.
type manifest struct {
	Paths     []string      `json:"paths"`
	Workloads []workloadDoc `json:"workloads"`
	EndToEnd  []metricDoc   `json:"end_to_end"`
	PerLayer  []metricDoc   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// bound is the share of the baseline by which an end-to-end metric may
// worsen before it counts as a regression (0 for per-layer metrics).
func (d metricDoc) bound() float64 {
	if d.Bound == nil {
		return 0
	}
	return *d.Bound
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// options are the parent's command-line settings.
type options struct {
	workload string
	reps     int
	seed     int64
	quick    bool
	out      string
	// seconds and trace are the benchmark driver's protocol: one workload
	// per invocation, timed reps until `seconds` of measured window time,
	// and one JSON result line holding the end-to-end metrics (trace 0) or
	// the per-layer metrics (trace 1).
	seconds int
	trace   int
}

func (o options) driver() bool { return o.seconds > 0 }

// A driver run produces one family of metrics; a plain run produces both.
func (o options) wantEndToEnd() bool { return !o.driver() || o.trace == 0 }
func (o options) wantLayers() bool   { return !o.driver() || o.trace == 1 }

func main() {
	if spec := os.Getenv(legEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.IntVar(&o.reps, "reps", 5, "timed repetitions per workload")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (Config.Seed)")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: 1 rep, 10 ms windows, shrunken aged volume")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for results.json and artifacts")
	flag.IntVar(&o.seconds, "seconds", 0, "driver protocol: measured seconds per run (with -workload and -trace)")
	flag.IntVar(&o.trace, "trace", 0, "driver protocol: 0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(o))
}

// run executes the benchmark and returns the exit code: 0 only when every
// declared metric was produced and every correctness check passed.
func run(o options) int {
	man, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root:", err)
		return 2
	}
	if o.quick {
		o.reps = 1
	}
	if o.reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be at least 1")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "" {
		if o.driver() {
			fmt.Fprintln(os.Stderr, "bench: -seconds needs -workload")
			return 2
		}
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	} else if findWorkload(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	out := resultsFile{Seed: o.seed, Quick: o.quick, Workloads: map[string]*workloadResult{}}
	var kernels *legResult
	if o.wantLayers() {
		k, err := runChild(legSpec{Leg: "kernels", Quick: o.quick, OutDir: o.out})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: kernels:", err)
			return 1
		}
		kernels = &k
	}
	ok := true
	for _, name := range names {
		wr, err := runWorkload(man, o, name, kernels)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		out.Workloads[name] = wr
		printWorkload(man, name, wr)
		ok = ok && wr.Correct
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.driver() {
		printDriverLine(o, out.Workloads[names[0]])
	}
	if !ok {
		return 1
	}
	return 0
}

// resultsFile is bench/out/results.json, the input of `bench compare`.
type resultsFile struct {
	Seed      int64                      `json:"seed"`
	Quick     bool                       `json:"quick"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Reps holds the per-rep values of a host metric (the value is their
	// median); simulated metrics are identical across reps and carry none.
	Reps []float64 `json:"reps,omitempty"`
}

type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Refused   uint64                 `json:"refused"`
	Failed    uint64                 `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Info      map[string]float64     `json:"info,omitempty"`
}

// runChild runs one leg in a fresh child process. The simulator has one
// runnable goroutine; the second processor is for the garbage collector.
func runChild(spec legSpec) (legResult, error) {
	var res legResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe)
	cmd.Env = []string{
		legEnv + "=" + string(js),
		"GOMAXPROCS=" + strconv.Itoa(min(runtime.NumCPU(), 2)),
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s leg: %w", spec.Leg, err)
	}
	if err := json.Unmarshal(stdout, &res); err != nil {
		return res, fmt.Errorf("%s leg: bad result: %w", spec.Leg, err)
	}
	return res, nil
}

// timedReps is how many timed reps a workload gets. The driver protocol's
// -seconds becomes a rep count through the workload's nominal window cost,
// not through a stopwatch, so the same arguments run the same sub-seeds on
// every host; at least three reps, so that a median means something.
func (o options) timedReps(wl *workloadDef) int {
	switch {
	case !o.driver():
		return o.reps
	case o.trace == 1:
		return 1
	default:
		return max(3, int(math.Round(float64(o.seconds)/wl.nominalWindowS)))
	}
}

// subSeed derives the Config.Seed of timed rep number rep from the run's
// seed. Every rep simulates a different seed and the run reports the mean
// of their simulated metrics, which is what makes a run steadier than a
// single window; the profile, traced and ladder legs reuse rep 0's seed.
func subSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// runWorkload runs every leg of one workload and merges the results.
func runWorkload(man *manifest, o options, name string, kernels *legResult) (*workloadResult, error) {
	wl := findWorkload(name)
	spec := legSpec{Workload: name, Seed: subSeed(o.seed, 0), Quick: o.quick, OutDir: o.out}
	runLeg := func(leg string, seed int64, check bool) (legResult, error) {
		s := spec
		s.Leg, s.Seed, s.Check = leg, seed, check
		return runChild(s)
	}

	// Timed reps: tracing and profiling off. The first one also runs the
	// post-window correctness check, which costs nothing measured.
	var timed []legResult
	for rep := 0; rep < o.timedReps(wl); rep++ {
		r, err := runLeg("timed", subSeed(o.seed, rep), rep == 0)
		if err != nil {
			return nil, err
		}
		timed = append(timed, r)
	}
	// sameSeed are the legs that simulate rep 0's seed: the determinism gate
	// requires them to agree exactly.
	sameSeed := []legResult{timed[0]}
	var profile, trace, ladder *legResult
	if o.wantLayers() {
		p, err := runLeg("profile", spec.Seed, false)
		if err != nil {
			return nil, err
		}
		t, err := runLeg("trace", spec.Seed, true)
		if err != nil {
			return nil, err
		}
		profile, trace = &p, &t
		sameSeed = append(sameSeed, p, t)
		if name == "overload_burst" {
			l, err := runLeg("ladder", spec.Seed, false)
			if err != nil {
				return nil, err
			}
			ladder = &l
		}
	}

	legs := append(append([]legResult(nil), timed...), sameSeed[1:]...)
	if ladder != nil {
		legs = append(legs, *ladder)
	}
	wr := &workloadResult{Info: map[string]float64{"timed_reps": float64(len(timed))}}
	for _, l := range legs {
		wr.Failed += l.Failed
		wr.Errors = append(wr.Errors, l.Errors...)
	}
	if diff := determinismGate(sameSeed); diff != "" {
		wr.Failed++
		wr.Errors = append(wr.Errors, "determinism gate: "+diff)
	}

	// Merge the timed reps: simulated metrics as the mean over the reps'
	// sub-seeds (each is exact for its seed), host metrics as the median
	// (robust against a rep that hit the host's slow page-fault mode), op
	// counts as totals. Then add what only one leg provides.
	values := map[string]float64{}
	reps := map[string][]float64{}
	for _, t := range timed {
		wr.Attempted += t.Attempted
		wr.Refused += t.Refused
		wr.Info["sim_lat_samples"] += t.Info["sim_lat_samples"]
		for k, v := range t.Sim {
			values[k] += v / float64(len(timed))
		}
		for k, v := range t.Host {
			reps[k] = append(reps[k], v)
		}
	}
	for k, v := range reps {
		values[k] = median(v)
	}
	for k, v := range timed[0].Info {
		if _, seen := wr.Info[k]; !seen {
			wr.Info[k] = v
		}
	}
	if profile != nil {
		for _, l := range profileLayers {
			values["host_cpu_share."+l] = profile.Host["host_cpu_share."+l]
		}
		wr.Info["profile_samples"] = profile.Info["profile_samples"]
		if !o.quick && profile.Info["profile_samples"] == 0 {
			wr.Failed++
			wr.Errors = append(wr.Errors, "cpu profile holds no samples")
		}
	}
	if trace != nil {
		for k, v := range trace.Sim {
			if _, seen := values[k]; !seen {
				values[k] = v
			}
		}
		values["facade.recover_cpu_s"] = trace.Host["facade.recover_cpu_s"]
		base := values["facade.window_cpu_s"]
		values["obs.trace_overhead_frac"] = ratio(trace.Host["facade.window_cpu_s"]-base, base)
		for k, v := range trace.Info {
			wr.Info["trace_leg."+k] = v
		}
	}
	if o.wantLayers() {
		for k, v := range kernels.Host {
			values[k] = v
		}
		values["sim_slo_rate_ops_per_s"] = 0 // defined on overload_burst only
		if ladder != nil {
			values["sim_slo_rate_ops_per_s"] = ladder.Sim["sim_slo_rate_ops_per_s"]
			for k, v := range ladder.Info {
				wr.Info[k] = v
			}
		}
	}

	collect := func(docs []metricDoc) map[string]metricValue {
		out := map[string]metricValue{}
		for _, d := range docs {
			v, ok := values[d.Name]
			if !ok {
				wr.Failed++
				wr.Errors = append(wr.Errors, "declared metric not produced: "+d.Name)
				continue
			}
			out[d.Name] = metricValue{Value: v, Unit: d.Unit, Reps: reps[d.Name]}
		}
		return out
	}
	if o.wantEndToEnd() {
		wr.EndToEnd = collect(man.EndToEnd)
	}
	if o.wantLayers() {
		wr.PerLayer = collect(man.PerLayer)
	}
	wr.Correct = wr.Failed == 0
	if err := writeJSON(filepath.Join(o.out, name+".spans.json"), legSpans(legs)); err != nil {
		return nil, err
	}
	return wr, nil
}

// legSpans gathers the host spans every leg recorded, in run order.
func legSpans(legs []legResult) [][]span {
	out := make([][]span, len(legs))
	for i, l := range legs {
		out[i] = l.Spans
	}
	return out
}

// determinismGate requires legs that simulated the same seed (timed rep 0,
// the profile leg, the traced leg) to agree exactly on every simulated
// metric they share and on the op counts. It returns the first difference,
// or "".
func determinismGate(legs []legResult) string {
	ref := legs[0]
	keys := make([]string, 0, len(ref.Sim))
	for k := range ref.Sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, l := range legs[1:] {
		for _, k := range keys {
			if v, ok := l.Sim[k]; ok && v != ref.Sim[k] {
				return fmt.Sprintf("%s = %v in leg 0 but %v in leg %d", k, ref.Sim[k], v, i+1)
			}
		}
		if l.Attempted != ref.Attempted || l.Refused != ref.Refused {
			return fmt.Sprintf("attempted/refused = %d/%d in leg 0 but %d/%d in leg %d",
				ref.Attempted, ref.Refused, l.Attempted, l.Refused, i+1)
		}
	}
	return ""
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printWorkload prints every metric as `workload metric value unit`.
func printWorkload(man *manifest, name string, wr *workloadResult) {
	line := func(docs []metricDoc, vals map[string]metricValue) {
		for _, d := range docs {
			if mv, ok := vals[d.Name]; ok {
				fmt.Printf("%s %s %v %s\n", name, d.Name, mv.Value, mv.Unit)
			}
		}
	}
	line(man.EndToEnd, wr.EndToEnd)
	line(man.PerLayer, wr.PerLayer)
	fmt.Printf("# %s: %d timed reps; latency percentiles over %.0f samples; attempted %d ops, refused %d (shed or dropped), correctness failures %d\n",
		name, int(wr.Info["timed_reps"]), wr.Info["sim_lat_samples"], wr.Attempted, wr.Refused, wr.Failed)
	if name == "overload_burst" {
		fmt.Printf("# %s: open loop; latency is sojourn time from the scheduled arrival; the generator is a simulated thread, so it is never late (lateness 0 by construction)\n", name)
		if wr.PerLayer != nil {
			for _, rate := range ladderRungs {
				key := fmt.Sprintf("ladder.%.0f.", rate)
				fmt.Printf("# %s: ladder %6.0f ops/s: LS p50 %.1f us, p99.9 %.1f us over %.0f samples, shed %.4f, backlog %.0f -> %.0f, pass %.0f\n",
					name, rate, wr.Info[key+"ls_p50_us"], wr.Info[key+"ls_p999_us"], wr.Info[key+"ls_samples"],
					wr.Info[key+"shed_frac"], wr.Info[key+"backlog_mid"], wr.Info[key+"backlog_end"], wr.Info[key+"pass"])
			}
		}
	}
	for _, e := range wr.Errors {
		fmt.Printf("# %s: FAILED: %s\n", name, e)
	}
}

// printDriverLine prints the driver protocol's result: one JSON object on
// the last line of standard output.
func printDriverLine(o options, wr *workloadResult) {
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := wr.EndToEnd
	if o.trace == 1 {
		vals = wr.PerLayer
	}
	metrics := map[string]driverMetric{}
	for k, mv := range vals {
		metrics[k] = driverMetric{mv.Value, mv.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted uint64                  `json:"attempted"`
		Failed    uint64                  `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}
