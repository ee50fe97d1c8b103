// Package harness runs the paper's experiments (§V, Figures 4-9 and the
// §V-C batching result) and the crash sweeps against the simulated storage
// server and renders the same tables/series the paper reports. Every one of
// them is an entry of Experiments, the registry waflbench and `make ci`
// select from by name.
package harness

import (
	"fmt"
	"os"
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
	// Trace, when set, traces every Measure of the run (TraceOut).
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

// TraceOut asks every Measure of a run for a Chrome trace-event JSON timeline:
// the run has the observability spine on, and its timeline goes to
// <Prefix>-NNN.json, numbered in run order. Events bounds the trace ring
// buffer; 0 selects the default. Tracing never changes measured results.
type TraceOut struct {
	Prefix string
	Events int
	seq    int // timelines written so far
}

// Measure builds a system with cfg, attaches the workload, measures it over
// rc's warm-up and window, and tears the system down (the returned *System
// is only good for reading statistics). With rc.Trace set, the run is traced
// and its timeline written before teardown.
func (rc RunConfig) Measure(cfg wafl.Config, w Attacher) (wafl.Results, *wafl.System, error) {
	tr := rc.Trace
	if tr != nil {
		cfg.Trace = true
		cfg.TraceEvents = tr.Events
	}
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		return wafl.Results{}, nil, err
	}
	w.Attach(sys)
	res := sys.Measure(rc.Warmup, rc.Window)
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
	return res, sys, nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func pct(v, base float64) string {
	return fmt.Sprintf("%+.0f%%", (v/base-1)*100)
}
func ms(d wafl.Duration) string { return fmt.Sprintf("%.3fms", d.Millis()) }
func us(d wafl.Duration) string { return fmt.Sprintf("%.1fus", d.Micros()) }
