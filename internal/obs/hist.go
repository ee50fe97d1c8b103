package obs

import (
	"fmt"
	"math/bits"
	"slices"
)

// Histogram accumulates int64 samples (latencies in nanoseconds, sizes in
// blocks) into log-linear buckets: exact below 2^subBits, then subCount
// sub-buckets per power of two — the classic HDR layout. It keeps only the
// octaves from its smallest sample's to its largest's, so memory is
// O(log(max/min)), recording is O(1), and quantiles are exact to within
// 1/subCount relative error, which is deterministic across runs (no
// sampling).
type Histogram struct {
	Name  string
	Count uint64
	Sum   int64
	Min   int64
	Max   int64

	lo      int      // the bucket buckets[0] counts
	buckets []uint64 // buckets lo, lo+1, ...: whole octaves
}

const (
	subBits  = 4
	subCount = 1 << subBits // 16 sub-buckets per octave
)

// NewHistogram returns an empty histogram. A layer keeps one per latency
// distribution it records, as a field of its stats struct.
func NewHistogram(name string) *Histogram { return &Histogram{Name: name} }

// bucketOf maps a non-negative sample to its bucket index: exact for
// v < subCount, then the octave [2^e, 2^(e+1)) splits into subCount
// sub-buckets of width 2^(e-subBits).
func bucketOf(v int64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // 2^exp <= v < 2^(exp+1)
	top := int(v>>(uint(exp-subBits))) - subCount
	return subCount + (exp-subBits)*subCount + top
}

// bucketUpper returns the largest sample value the bucket can hold.
func bucketUpper(b int) int64 {
	if b < subCount {
		return int64(b)
	}
	octave := (b - subCount) / subCount
	top := (b - subCount) % subCount
	return (int64(subCount+top+1) << uint(octave)) - 1
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	b := bucketOf(v)
	if b < h.lo || b >= h.lo+len(h.buckets) {
		h.span(b, b+1)
	}
	h.buckets[b-h.lo]++
}

// span extends the buckets, in whole octaves, to cover buckets [lo, hi).
func (h *Histogram) span(lo, hi int) {
	if len(h.buckets) == 0 {
		h.lo = lo
	}
	end := h.lo + len(h.buckets)
	if lo >= h.lo && hi <= end {
		return
	}
	lo = min(lo, h.lo) / subCount * subCount
	hi = (max(hi, end) + subCount - 1) / subCount * subCount
	b := make([]uint64, hi-lo)
	copy(b[h.lo-lo:], h.buckets)
	h.lo, h.buckets = lo, b
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / int64(h.Count)
}

// Quantile returns the q-quantile (q in [0, 1]) as the upper bound of the
// bucket containing it, clamped to the observed [Min, Max]. An empty
// histogram returns 0; a single-sample histogram returns that sample
// exactly.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The target rank is the ceiling of q*Count: the q-quantile of n samples
	// is the ceil(q*n)-th order statistic. Truncating here returned the
	// previous sample (p50 of {a,b,c} came back as a), which a property test
	// over 1..3-sample histograms catches.
	tf := q * float64(h.Count)
	target := uint64(tf)
	if float64(target) < tf {
		target++
	}
	if target < 1 {
		target = 1
	}
	if target > h.Count {
		target = h.Count
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			v := bucketUpper(h.lo + i)
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
	}
	return h.Max
}

// Clone returns an independent deep copy of the histogram. Measurement
// windows snapshot a live histogram with Clone and later Delta the end
// state against the snapshot.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.buckets = slices.Clone(h.buckets)
	return &c
}

// Delta returns the samples recorded in h after the snapshot prev (which
// must be an earlier Clone of the same histogram), leaving h as it is.
func (h *Histogram) Delta(prev *Histogram) *Histogram {
	d := h.Clone()
	d.Sub(prev)
	return d
}

// Sub removes from h the samples of prev, an earlier Clone of h, leaving
// those recorded since: per-bucket counts, Count, and Sum subtract exactly.
// Min/Max of what remains are recovered from the first and last non-empty
// buckets (exact to within one bucket, the histogram's native resolution),
// clamped to the cumulative extremes. A nil prev removes nothing.
func (h *Histogram) Sub(prev *Histogram) {
	if prev == nil {
		return
	}
	h.Count -= prev.Count
	h.Sum -= prev.Sum
	lo, hi := -1, -1
	for i := range h.buckets {
		if j := h.lo + i - prev.lo; j >= 0 && j < len(prev.buckets) {
			h.buckets[i] -= prev.buckets[j]
		}
		if h.buckets[i] > 0 {
			if lo < 0 {
				lo = h.lo + i
			}
			hi = h.lo + i
		}
	}
	if lo < 0 {
		h.Min, h.Max = 0, 0
		return
	}
	if lo > 0 {
		h.Min = max(h.Min, bucketUpper(lo-1)+1)
	}
	h.Max = min(h.Max, bucketUpper(hi))
}

// Merge folds other into h: bucket counts, Count, and Sum add exactly;
// Min/Max take the tighter extreme. Used to combine per-member window
// histograms into one cluster-wide latency distribution.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.Count == 0 {
		return
	}
	if h.Count == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Sum += other.Sum
	h.span(other.lo, other.lo+len(other.buckets))
	for i, n := range other.buckets {
		h.buckets[other.lo+i-h.lo] += n
	}
}

// String renders the histogram as one summary line.
func (h *Histogram) String() string {
	return fmt.Sprintf("%s: n=%d avg=%s p50=%s p95=%s p99=%s max=%s",
		h.Name, h.Count, fmtNanos(h.Mean()),
		fmtNanos(h.Quantile(0.50)), fmtNanos(h.Quantile(0.95)),
		fmtNanos(h.Quantile(0.99)), fmtNanos(h.Max))
}

// fmtNanos renders a nanosecond quantity with a human unit (histograms
// overwhelmingly hold simulated durations).
func fmtNanos(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3fus", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
