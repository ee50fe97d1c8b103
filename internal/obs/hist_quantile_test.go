package obs

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// quantileValues are sample values straddling the histogram's layout
// boundaries: the exact region (v < 16), the first sub-bucketed octave,
// power-of-two edges, and wide octaves where a bucket spans many values.
var quantileValues = []int64{0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 255, 256,
	1000, 4095, 4096, 65536, 1 << 20, 123456789}

// TestQuantileSmallHistograms is the property test over 1..3-sample
// histograms: for every combination of samples, every quantile must land in
// the bucket of the exact order statistic of rank ceil(q*n) — and a
// single-sample histogram must return its sample exactly for every q.
func TestQuantileSmallHistograms(t *testing.T) {
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	check := func(samples []int64) {
		h := NewHistogram("q")
		for _, v := range samples {
			h.Observe(v)
		}
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range quantiles {
			got := h.Quantile(q)
			// Exact order statistic at rank ceil(q*n), 1-based, min rank 1.
			rank := int(q * float64(len(samples)))
			if float64(rank) < q*float64(len(samples)) {
				rank++
			}
			if rank < 1 {
				rank = 1
			}
			want := sorted[rank-1]
			if len(samples) == 1 && got != want {
				t.Fatalf("single-sample histogram {%d}: Quantile(%g) = %d, want the sample exactly",
					samples[0], q, got)
			}
			if bucketOf(got) != bucketOf(want) {
				t.Fatalf("samples %v: Quantile(%g) = %d (bucket %d), want order statistic %d (bucket %d)",
					samples, q, got, bucketOf(got), want, bucketOf(want))
			}
			if got < h.Min || got > h.Max {
				t.Fatalf("samples %v: Quantile(%g) = %d outside [%d, %d]",
					samples, q, got, h.Min, h.Max)
			}
		}
	}
	for _, a := range quantileValues {
		check([]int64{a})
		for _, b := range quantileValues {
			check([]int64{a, b})
			for _, c := range quantileValues {
				check([]int64{a, b, c})
			}
		}
	}
}

// TestQuantileBucketUpperDrift pins the off-by-one-bucket case directly:
// three distinct samples, the median must come back from the middle
// sample's bucket, p99 from the maximum's.
func TestQuantileBucketUpperDrift(t *testing.T) {
	h := NewHistogram("drift")
	for _, v := range []int64{1, 5, 9} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("p50 of {1,5,9} = %d, want 5", got)
	}
	if got := h.Quantile(0.99); got != 9 {
		t.Errorf("p99 of {1,5,9} = %d, want 9", got)
	}
	if got := h.Quantile(1); got != 9 {
		t.Errorf("p100 of {1,5,9} = %d, want 9", got)
	}
}

// TestMergeEqualsOneHistogram is Merge's exactness property over randomized
// part sets, empty parts included: merging k histograms gives what one
// histogram fed every sample gives — Count, Sum, Min, Max, Mean, every
// bucket, and so every quantile. A cluster's window latency is its members'
// window histograms merged, so its tail is only as right as this.
func TestMergeEqualsOneHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		merged, ref := NewHistogram("merged"), NewHistogram("ref")
		for k := 1 + rng.Intn(8); k > 0; k-- {
			part := NewHistogram("part")
			for n := rng.Intn(400); n > 0; n-- {
				// Spread over many octaves like op latencies (µs to tens of ms).
				v := int64(1000) << rng.Intn(14)
				v += rng.Int63n(v)
				part.Observe(v)
				ref.Observe(v)
			}
			merged.Merge(part)
		}
		if merged.Count != ref.Count || merged.Sum != ref.Sum || merged.Min != ref.Min ||
			merged.Max != ref.Max || merged.Mean() != ref.Mean() || !slices.Equal(merged.buckets, ref.buckets) {
			t.Fatalf("trial %d: merged n=%d sum=%d [%d, %d], one histogram n=%d sum=%d [%d, %d]",
				trial, merged.Count, merged.Sum, merged.Min, merged.Max, ref.Count, ref.Sum, ref.Min, ref.Max)
		}
		for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
			if got, want := merged.Quantile(q), ref.Quantile(q); got != want {
				t.Fatalf("trial %d: merged q%g = %d, one histogram %d", trial, q, got, want)
			}
		}
	}
}
