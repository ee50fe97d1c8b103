package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	tr := New(Options{Capacity: 8})
	for i := 0; i < 20; i++ {
		tr.Instant(PidThreads, 0, "test", "ev", int64(i))
	}
	if tr.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events len = %d, want 8", len(evs))
	}
	// Oldest-first: timestamps 12..19.
	for i, e := range evs {
		if e.Start != int64(12+i) {
			t.Fatalf("event %d: Start = %d, want %d", i, e.Start, 12+i)
		}
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	tr := New(Options{Capacity: 8})
	for i := 0; i < 3; i++ {
		tr.Instant(PidThreads, 0, "test", "ev", int64(i))
	}
	evs := tr.Events()
	if len(evs) != 3 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 3, 0", len(evs), tr.Dropped())
	}
	for i, e := range evs {
		if e.Start != int64(i) {
			t.Fatalf("event %d: Start = %d, want %d", i, e.Start, i)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Span(PidCores, 0, "c", "n", 0, 1)
	tr.Instant(PidCores, 0, "c", "n", 0)
	tr.Counter(PidCores, 0, "n", 0, 1)
	tr.SetHistograms(func() []*Histogram { return []*Histogram{NewHistogram("m")} })
	tr.NoteBlock(7, "ctx %d", 1)
	if got := tr.BlockNote(7); got != "tracing off" {
		t.Fatalf("BlockNote on nil = %q", got)
	}
	if tr.Track(PidCores, "x") != 0 || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer accessors not inert")
	}
	if tr.Histograms() != nil {
		t.Fatal("nil tracer returned histograms")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer export is not valid JSON: %v", err)
	}
}

func TestTrackInterning(t *testing.T) {
	tr := New(Options{})
	a := tr.Track(PidThreads, "alpha")
	b := tr.Track(PidThreads, "beta")
	if a != 0 || b != 1 {
		t.Fatalf("tids = %d, %d; want 0, 1", a, b)
	}
	if again := tr.Track(PidThreads, "alpha"); again != a {
		t.Fatalf("re-interning alpha gave %d, want %d", again, a)
	}
	// Same name under a different pid is a distinct track namespace.
	if other := tr.Track(PidStorage, "alpha"); other != 0 {
		t.Fatalf("first track under PidStorage = %d, want 0", other)
	}
	if got := tr.tracks[PidThreads].names[b]; got != "beta" {
		t.Fatalf("track %d is named %q, want beta", b, got)
	}
}

func TestNoteBlock(t *testing.T) {
	tr := New(Options{})
	tr.NoteBlock(42, "commit g=%d", 3)
	if got := tr.BlockNote(42); got != "commit g=3" {
		t.Fatalf("BlockNote = %q", got)
	}
	if got := tr.BlockNote(43); got != "" {
		t.Fatalf("unset BlockNote = %q, want empty", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("empty")
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: p50=%d mean=%d, want 0, 0", h.Quantile(0.5), h.Mean())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram("one")
	h.Observe(123456)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 123456 {
			t.Fatalf("single-sample Quantile(%v) = %d, want 123456", q, got)
		}
	}
	if h.Mean() != 123456 || h.Min != 123456 || h.Max != 123456 {
		t.Fatalf("single-sample stats wrong: mean=%d min=%d max=%d", h.Mean(), h.Min, h.Max)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram("neg")
	h.Observe(-5)
	if h.Min != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative sample not clamped: min=%d p50=%d", h.Min, h.Quantile(0.5))
	}
}

func TestHistogramUniform(t *testing.T) {
	h := NewHistogram("uniform")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// Log-linear buckets are exact to within 1/subCount relative error.
	checks := []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo := c.want - c.want/subCount - 1
		hi := c.want + c.want/subCount + 1
		if got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %d, want within [%d, %d]", c.q, got, lo, hi)
		}
	}
	if h.Quantile(1) != 1000 {
		t.Fatalf("Quantile(1) = %d, want 1000", h.Quantile(1))
	}
}

// maxBuckets covers the full non-negative int64 range.
const maxBuckets = subCount + (63-subBits)*subCount

// TestHistogramView: a tracer's Histograms is the view its owner handed it,
// called afresh each time; without one it is nil.
func TestHistogramView(t *testing.T) {
	tr := New(Options{})
	if tr.Histograms() != nil {
		t.Fatal("a tracer without a view returned histograms")
	}
	h := NewHistogram("client.write")
	calls := 0
	tr.SetHistograms(func() []*Histogram { calls++; return []*Histogram{h.Clone()} })
	h.Observe(7)
	if got := tr.Histograms(); calls != 1 || len(got) != 1 || got[0].Name != "client.write" || got[0].Count != 1 {
		t.Fatalf("Histograms = %v after %d calls, want the view's one histogram with its sample", got, calls)
	}
}

// TestHistogramSpansItsOctaves: buckets cover the octaves from the smallest
// sample's to the largest's, never past the int64 range, and Clone, Delta
// and Merge agree across histograms of different spans with one that saw
// every sample.
func TestHistogramSpansItsOctaves(t *testing.T) {
	h, ref := NewHistogram("h"), NewHistogram("ref")
	if len(h.buckets) != 0 {
		t.Fatalf("empty histogram holds %d buckets", len(h.buckets))
	}
	observe := func(vs ...int64) {
		for _, v := range vs {
			h.Observe(v)
			ref.Observe(v)
		}
	}
	observe(40_000, 90_000)
	if h.lo%subCount != 0 || h.lo > bucketOf(40_000) || h.lo+len(h.buckets) <= bucketOf(90_000) || len(h.buckets) != 2*subCount {
		t.Fatalf("buckets [%d, %d) for samples in buckets %d and %d, want their two octaves",
			h.lo, h.lo+len(h.buckets), bucketOf(40_000), bucketOf(90_000))
	}
	prev := h.Clone()
	observe(3, 1<<62)
	if h.lo != 0 || len(h.buckets) > maxBuckets {
		t.Fatalf("buckets [%d, %d), want from 0 and at most the %d of the int64 range", h.lo, h.lo+len(h.buckets), maxBuckets)
	}
	d := h.Delta(prev)
	if d.Count != 2 || d.Sum != 3+1<<62 || d.Quantile(0.5) != 3 || d.Quantile(1) != 1<<62 {
		t.Fatalf("delta over a wider span: %v", d)
	}
	short, long := prev.Clone(), d.Clone()
	short.Merge(d)
	long.Merge(prev)
	for _, m := range []*Histogram{short, long} {
		if m.Count != ref.Count || m.Sum != ref.Sum || m.Min != ref.Min || m.Max != ref.Max ||
			m.lo != ref.lo || !slices.Equal(m.buckets, ref.buckets) {
			t.Fatalf("merged %+v, want %+v", m, ref)
		}
	}
}

func TestBucketMath(t *testing.T) {
	// Bucket indices must be monotone, in range, and self-consistent: every
	// value maps to a bucket whose bounds contain it.
	prev := -1
	for v := int64(0); v < 1<<21; v += 7 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at v=%d: %d < %d", v, b, prev)
		}
		if b >= maxBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if up := bucketUpper(b); v > up {
			t.Fatalf("v=%d > bucketUpper(%d)=%d", v, b, up)
		}
		if b > 0 {
			if lowUp := bucketUpper(b - 1); v <= lowUp {
				t.Fatalf("v=%d <= upper bound %d of previous bucket %d", v, lowUp, b-1)
			}
		}
		prev = b
	}
	// The largest representable value must stay in range.
	if b := bucketOf(1<<62 + 12345); b >= maxBuckets {
		t.Fatalf("huge value bucket %d out of range", b)
	}
}

// chromeDoc mirrors the exported JSON for parse-back assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int32          `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestChromeExport(t *testing.T) {
	tr := New(Options{Capacity: 64})
	core0 := tr.Track(PidCores, "core0")
	th := tr.Track(PidThreads, "cleaner-0")
	// Emit out of start-time order: spans are recorded at completion.
	tr.Span(PidCores, core0, "cleaner", "burst", 2000, 5000)
	tr.Span(PidThreads, th, "sync", "lock:cache", 1000, 4000)
	tr.Instant(PidThreads, th, "alloc", "USE", 4500)
	tr.Counter(PidAffinity, 0, "queued msgs", 3000, 7)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	names := map[string]bool{}
	lastTs := -1.0
	var spans, instants, counters, meta int
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		switch e.Ph {
		case "M":
			meta++
			continue // metadata carries no timestamp
		case "X":
			spans++
			if e.Dur == nil {
				t.Fatalf("span %q lacks dur", e.Name)
			}
		case "i":
			instants++
		case "C":
			counters++
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
		if e.Ts < lastTs {
			t.Fatalf("events not timestamp-ordered: %v after %v", e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
	if spans != 2 || instants != 1 || counters != 1 {
		t.Fatalf("event counts: spans=%d instants=%d counters=%d", spans, instants, counters)
	}
	if meta == 0 {
		t.Fatal("no process/thread metadata emitted")
	}
	for _, want := range []string{"process_name", "thread_name", "burst", "lock:cache", "USE", "queued msgs"} {
		if !names[want] {
			t.Fatalf("exported trace lacks %q", want)
		}
	}
	// The first timed event must be the earliest start: the mutex span at
	// 1000ns = 1µs, even though it was recorded second.
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Name != "lock:cache" || e.Ts != 1.0 {
			t.Fatalf("first timed event = %q at %vµs, want lock:cache at 1µs", e.Name, e.Ts)
		}
		break
	}
}
