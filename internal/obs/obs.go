// Package obs is the observability spine of the simulator: a structured,
// zero-cost-when-disabled event and metrics layer shared by every subsystem
// (the discrete-event kernel, the Waffinity scheduler, the White Alligator
// infrastructure, the CP engine, and the simulated drives).
//
// A *Tracer records three kinds of data:
//
//   - typed trace events (spans, instants, counter samples) carrying only
//     simulated timestamps, appended to a bounded ring buffer that drops the
//     oldest events under pressure;
//   - per-category latency histograms (log-linear buckets, p50/p95/p99);
//   - per-block forensic notes — the last context that claimed each physical
//     block, used by the double-allocation panic path.
//
// The disabled state is a nil *Tracer: every method is nil-receiver-safe, so
// emission points reduce to a single pointer comparison and benchmark
// results are bit-identical with tracing off. Determinism with tracing on is
// preserved by construction — the tracer never reads wall-clock time, never
// blocks, and never feeds anything back into the simulation.
//
// Recorded timelines export as Chrome trace-event JSON (WriteChromeTrace)
// and load directly in Perfetto / chrome://tracing.
package obs

import "fmt"

// Time is a simulated timestamp in nanoseconds (mirrors sim.Time without
// importing it; obs must stay dependency-free so every layer can use it).
type Time = int64

// Well-known trace processes ("pid" in the Chrome trace model). Each pid
// groups a family of tracks: one per simulated core, per thread, per
// affinity, per drive, and one for CP phase markers.
const (
	PidCores    = 1 // one track per simulated CPU core: what ran on it, when
	PidThreads  = 2 // one track per simulated thread: ops, jobs, waits
	PidAffinity = 3 // one track per Waffinity affinity: message lifecycle
	PidStorage  = 4 // one track per drive: I/O service spans
	PidCP       = 5 // consistency-point phase markers
	PidInfra    = 6 // one track per RAID group: window/tetris lifecycle
)

// processNames maps pids to Chrome process_name metadata.
var processNames = map[int32]string{
	PidCores:    "cores",
	PidThreads:  "threads",
	PidAffinity: "affinities",
	PidStorage:  "drives",
	PidCP:       "cp",
	PidInfra:    "infra",
}

// Phase classifies an event, mirroring the Chrome trace "ph" field.
type Phase uint8

// Event phases.
const (
	PhaseInstant Phase = iota // a point in time ("i")
	PhaseSpan                 // a complete duration event ("X")
	PhaseCounter              // a counter sample ("C")
)

// Event is one recorded trace event. Spans carry Start and Dur; instants
// and counter samples only Start. Arg is an optional numeric payload
// (queue depth, block count, VBN, counter value) gated by HasArg.
type Event struct {
	Start  Time
	Dur    Time
	Pid    int32
	Tid    int32
	Ph     Phase
	Cat    string
	Name   string
	Arg    int64
	HasArg bool
}

// Options configures a Tracer.
type Options struct {
	// Capacity bounds the event ring buffer (events, not bytes). Zero
	// selects DefaultCapacity. Oldest events drop first.
	Capacity int
}

// DefaultCapacity is the default ring-buffer size: large enough to hold a
// few hundred milliseconds of fully-instrumented simulation.
const DefaultCapacity = 1 << 18

// trackSet interns track names for one pid.
type trackSet struct {
	ids   map[string]int32
	names []string
}

// Tracer records events, histograms, and forensic notes. All methods are
// safe on a nil receiver (no-ops), which is the disabled fast path. A
// Tracer is not safe for concurrent use from multiple goroutines; the
// simulation kernel serializes all access.
type Tracer struct {
	ring    []Event
	head    int // next overwrite position once the ring is full
	full    bool
	dropped uint64

	tracks map[int32]*trackSet

	hists     map[string]*Histogram
	histOrder []string

	notes map[uint64]string
}

// New returns an enabled Tracer. Pass Options{} for defaults.
func New(opts Options) *Tracer {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		ring:   make([]Event, 0, capacity),
		tracks: make(map[int32]*trackSet),
		hists:  make(map[string]*Histogram),
		notes:  make(map[uint64]string),
	}
}

// Enabled reports whether the tracer records anything (false for nil).
func (tr *Tracer) Enabled() bool { return tr != nil }

// Track interns a named track under pid and returns its tid. Repeated calls
// with the same (pid, name) return the same tid; tids are assigned in
// first-registration order, which the serialized simulation makes
// deterministic. A nil tracer returns 0.
func (tr *Tracer) Track(pid int32, name string) int32 {
	if tr == nil {
		return 0
	}
	ts := tr.tracks[pid]
	if ts == nil {
		ts = &trackSet{ids: make(map[string]int32)}
		tr.tracks[pid] = ts
	}
	if id, ok := ts.ids[name]; ok {
		return id
	}
	id := int32(len(ts.names))
	ts.ids[name] = id
	ts.names = append(ts.names, name)
	return id
}

// push appends an event, overwriting the oldest when the ring is full.
func (tr *Tracer) push(e Event) {
	if !tr.full && len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, e)
		return
	}
	tr.full = true
	tr.ring[tr.head] = e
	tr.head++
	if tr.head == len(tr.ring) {
		tr.head = 0
	}
	tr.dropped++
}

// Span records a complete duration event covering [start, end].
func (tr *Tracer) Span(pid, tid int32, cat, name string, start, end Time) {
	if tr == nil {
		return
	}
	tr.push(Event{Start: start, Dur: end - start, Pid: pid, Tid: tid, Ph: PhaseSpan, Cat: cat, Name: name})
}

// SpanArg is Span with a numeric argument attached.
func (tr *Tracer) SpanArg(pid, tid int32, cat, name string, start, end Time, arg int64) {
	if tr == nil {
		return
	}
	tr.push(Event{Start: start, Dur: end - start, Pid: pid, Tid: tid, Ph: PhaseSpan, Cat: cat, Name: name, Arg: arg, HasArg: true})
}

// Instant records a point event.
func (tr *Tracer) Instant(pid, tid int32, cat, name string, at Time) {
	if tr == nil {
		return
	}
	tr.push(Event{Start: at, Pid: pid, Tid: tid, Ph: PhaseInstant, Cat: cat, Name: name})
}

// InstantArg is Instant with a numeric argument attached.
func (tr *Tracer) InstantArg(pid, tid int32, cat, name string, at Time, arg int64) {
	if tr == nil {
		return
	}
	tr.push(Event{Start: at, Pid: pid, Tid: tid, Ph: PhaseInstant, Cat: cat, Name: name, Arg: arg, HasArg: true})
}

// Counter records a counter sample (rendered as a stacked area track).
func (tr *Tracer) Counter(pid, tid int32, name string, at Time, value int64) {
	if tr == nil {
		return
	}
	tr.push(Event{Start: at, Pid: pid, Tid: tid, Ph: PhaseCounter, Name: name, Arg: value, HasArg: true})
}

// Observe adds a sample (typically nanoseconds) to the named histogram,
// creating it on first use.
func (tr *Tracer) Observe(metric string, v int64) {
	if tr == nil {
		return
	}
	h := tr.hists[metric]
	if h == nil {
		h = newHistogram(metric)
		tr.hists[metric] = h
		tr.histOrder = append(tr.histOrder, metric)
	}
	h.Observe(v)
}

// Histograms returns every histogram in first-observation order.
func (tr *Tracer) Histograms() []*Histogram {
	if tr == nil {
		return nil
	}
	out := make([]*Histogram, 0, len(tr.histOrder))
	for _, name := range tr.histOrder {
		out = append(out, tr.hists[name])
	}
	return out
}

// NoteBlock records the context that last claimed physical block bn — the
// double-allocation forensics previously kept in an env-gated global map.
func (tr *Tracer) NoteBlock(bn uint64, format string, args ...any) {
	if tr == nil {
		return
	}
	tr.notes[bn] = fmt.Sprintf(format, args...)
}

// BlockNote returns the last recorded note for bn. A nil tracer reports
// that tracing is off.
func (tr *Tracer) BlockNote(bn uint64) string {
	if tr == nil {
		return "tracing off"
	}
	return tr.notes[bn]
}

// Events returns the buffered events oldest-first. The slice is a copy.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	if !tr.full {
		return append([]Event(nil), tr.ring...)
	}
	out := make([]Event, 0, len(tr.ring))
	out = append(out, tr.ring[tr.head:]...)
	out = append(out, tr.ring[:tr.head]...)
	return out
}

// Len returns the number of buffered events.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.ring)
}

// Dropped returns how many events were overwritten by ring wraparound.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.dropped
}
