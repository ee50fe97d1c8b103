package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Verdicts of `bench compare`, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is what
// the benchmark's acceptance rule is stated in. v needs two values or more.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median: 0
// for a metric with fewer than two reps (simulated metrics are exact).
func spread(reps []float64) float64 {
	if len(reps) < 2 {
		return 0
	}
	q1, q3 := quartiles(reps)
	return ratio(q3-q1, math.Abs(median(reps)))
}

// verdict compares side B against side A for one metric. worsening is the
// signed relative change in the metric's bad direction. The metric is
// unresolved when A's own rep-to-rep spread is wider than the bound, so a
// change of that size could not be told from noise.
func verdict(doc metricDoc, a, b metricValue) (v string, worsening float64) {
	bound := doc.bound()
	worsening = ratio(b.Value-a.Value, math.Abs(a.Value))
	if a.Value == 0 && b.Value != 0 {
		worsening = math.Copysign(math.Inf(1), b.Value)
	}
	if doc.Better == "higher" && worsening != 0 {
		worsening = -worsening
	}
	switch {
	case spread(a.Reps) > bound:
		return verdictUnresolved, worsening
	case worsening > bound:
		return verdictWorse, worsening
	case worsening < -bound:
		return verdictBetter, worsening
	default:
		return verdictWithin, worsening
	}
}

func loadResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain implements `bench compare A.json B.json`: A is the baseline.
// It exits 1 when any metric on any workload is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare: run from the repository root:", err)
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b *resultsFile
		if b, err = loadResults(args[1]); err == nil {
			return compareResults(man, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareResults(man *manifest, a, b *resultsFile) int {
	code := 0
	fmt.Printf("%-15s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, w := range man.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range man.EndToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				fmt.Printf("%-15s %-24s missing on one side\n", w.Name, d.Name)
				code = 1
				continue
			}
			v, worsening := verdict(d, ma, mb)
			if v == verdictWorse {
				code = 1
			}
			fmt.Printf("%-15s %-24s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				w.Name, d.Name, ma.Value, mb.Value, 100*worsening, 100*d.bound(), v)
		}
	}
	return code
}
