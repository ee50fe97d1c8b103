// Package harness runs the paper's experiments (§V, Figures 4-9 and the
// §V-C batching result) and the crash sweeps against the simulated storage
// server and renders the same tables/series the paper reports. Every one of
// them is an entry of Experiments, the registry waflbench and `make ci`
// select from by name.
package harness

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"wafl"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Attacher is any workload that can attach clients to a system (the
// workload package's generators all implement it).
type Attacher interface {
	Attach(sys *wafl.System)
}

// RunConfig bundles the common experiment parameters.
type RunConfig struct {
	Base   wafl.Config
	Warmup wafl.Duration
	Window wafl.Duration
	// Cleaners is the parallel cleaner-thread count of the permutation
	// experiments (Fig 4, 6, 7).
	Cleaners int
	// Points and Seeds deepen the crash sweeps; zero and nil keep each
	// sweep's CI-sized default.
	Points int
	Seeds  []int64
	// Trace, when set, traces every measurement of the run (TraceOut).
	Trace *TraceOut
}

// DefaultRun returns the standard measurement setup, the one EXPERIMENTS.md's
// numbers were taken with: the paper's 20-core SSD system, six parallel
// cleaners, measured over a 400ms window after 200ms warmup.
func DefaultRun() RunConfig {
	return RunConfig{
		Base:     wafl.DefaultConfig(),
		Warmup:   200 * wafl.Millisecond,
		Window:   400 * wafl.Millisecond,
		Cleaners: 6,
	}
}

// TraceOut asks every measurement of a run for a Chrome trace-event JSON timeline:
// the run has the observability spine on, and its timeline goes to
// <Prefix>-NNN.json, numbered in run order. Events bounds the trace ring
// buffer; 0 selects the default. Tracing never changes measured results.
type TraceOut struct {
	Prefix string
	Events int
	seq    int // timelines written so far
}

// A scenario is one measurement of a registry table: the row's label (its
// leading cells), the system's config and the workload; the run's warm-up
// and window are its RunConfig's. A table is a list of them and a renderer.
type scenario struct {
	label []string
	cfg   wafl.Config
	work  Attacher
	// atWindow, when set, runs at the window's start, after the warm-up:
	// a workload that keeps statistics of its own marks them there.
	atWindow func()
}

func newScenario(label []string, cfg wafl.Config, w Attacher) scenario {
	return scenario{label: label, cfg: cfg, work: w}
}

// A measurement is a scenario's outcome: the cluster's window, each
// member's, and the system, shut down and good only for reading statistics.
type measurement struct {
	scenario
	res     wafl.Results
	members []wafl.Results
	sys     *wafl.System
}

// run is the one way the registry measures: it builds sc's system, attaches
// the workload, warms up for rc.Warmup, measures rc.Window and shuts the
// system down.
// With rc.Trace set, the run is traced and its timeline written before the
// shutdown.
func (rc RunConfig) run(sc scenario) (measurement, error) {
	cfg, tr := sc.cfg, rc.Trace
	if tr != nil {
		cfg.Trace = true
		cfg.TraceEvents = tr.Events
	}
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		return measurement{}, fmt.Errorf("row %q: %w", strings.Join(sc.label, " "), err)
	}
	sc.work.Attach(sys)
	sys.Run(rc.Warmup)
	if sc.atWindow != nil {
		sc.atWindow()
	}
	m := measurement{scenario: sc, sys: sys}
	m.res, m.members = sys.MeasureMembers(0, rc.Window)
	if tr != nil {
		name := fmt.Sprintf("%s-%03d.json", tr.Prefix, tr.seq)
		tr.seq++
		if f, err := os.Create(name); err != nil {
			fmt.Fprintln(os.Stderr, "harness: trace:", err)
		} else {
			if err := sys.WriteTrace(f); err != nil {
				fmt.Fprintln(os.Stderr, "harness: trace:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "harness: wrote trace %s (%d events)\n", name, sys.Tracer().Len())
		}
	}
	sys.Shutdown()
	return m, nil
}

// runAll runs scs in order.
func (rc RunConfig) runAll(scs []scenario) ([]measurement, error) {
	runs := make([]measurement, 0, len(scs))
	for _, sc := range scs {
		m, err := rc.run(sc)
		if err != nil {
			return nil, err
		}
		runs = append(runs, m)
	}
	return runs, nil
}

// rows runs scs in order and adds a row to t for each: the scenario's label,
// then the cells row renders from its measurement and the first one's, the
// baseline of a relative column.
func (rc RunConfig) rows(t Table, scs []scenario, row func(m, base measurement) []string) (Table, []measurement, error) {
	runs, err := rc.runAll(scs)
	for _, m := range runs {
		t.Rows = append(t.Rows, slices.Concat(m.label, row(m, runs[0])))
	}
	return t, runs, err
}

// Measure builds a system with cfg, attaches w and measures it over rc's
// warm-up and window through the registry's runner; the returned *System is
// shut down, good only for reading statistics.
func (rc RunConfig) Measure(cfg wafl.Config, w Attacher) (wafl.Results, *wafl.System, error) {
	m, err := rc.run(newScenario(nil, cfg, w))
	return m.res, m.sys, err
}

// withCleaners returns cfg with n cleaner threads, static unless the
// allocator's dynamic tuner is on.
func withCleaners(cfg wafl.Config, n int) wafl.Config {
	cfg.Allocator.InitialCleaners, cfg.Allocator.MaxCleaners = n, n
	return cfg
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func pct(v, base float64) string {
	return fmt.Sprintf("%+.0f%%", (v/base-1)*100)
}
func ms(d wafl.Duration) string { return fmt.Sprintf("%.3fms", d.Millis()) }
func us(d wafl.Duration) string { return fmt.Sprintf("%.1fus", d.Micros()) }
