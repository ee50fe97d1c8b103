package waffinity

import (
	"fmt"
	"strings"
)

// HierarchyConfig sizes the standard Hierarchical Waffinity tree of Fig 1.
type HierarchyConfig struct {
	Aggregates    int // Aggregate affinity instances
	VolumesPerAgg int // Volume affinity instances per aggregate
	StripesPerVol int // Stripe affinity instances per Volume Logical
	RangesPerVBN  int // Range affinity instances per {Volume,Aggr} VBN
	FirstAggr     int // numbering offset for affinity names (cluster members)
}

// DefaultHierarchy matches the mid-range testbed shape used in §V: one
// aggregate, a handful of volumes, and enough stripe/range instances to
// expose the available parallelism.
var DefaultHierarchy = HierarchyConfig{
	Aggregates:    1,
	VolumesPerAgg: 4,
	StripesPerVol: 16,
	RangesPerVBN:  8,
}

// VolAffinities groups the affinity instances belonging to one volume.
type VolAffinities struct {
	Volume  *Affinity   // per-volume serial work
	Logical *Affinity   // Volume Logical: client-facing file operations
	Stripes []*Affinity // stripes of user files, under Logical
	VolVBN  *Affinity   // volume allocation-metafile work
	Ranges  []*Affinity // block ranges of volume metafiles, under VolVBN
}

// AggrAffinities groups the affinity instances belonging to one aggregate.
type AggrAffinities struct {
	Aggr    *Affinity
	AggrVBN *Affinity   // aggregate allocation-metafile work
	Ranges  []*Affinity // block ranges of aggregate metafiles, under AggrVBN
	Volumes []*VolAffinities
}

// Hierarchy is a fully built Hierarchical Waffinity tree (paper Fig 1):
//
//	Serial
//	└── Aggregate[i]
//	    ├── AggrVBN ── Range[r]
//	    └── Volume[v]
//	        ├── VolLogical ── Stripe[s]
//	        └── VolVBN ── Range[r]
type Hierarchy struct {
	Sched  *Scheduler
	Serial *Affinity
	Aggrs  []*AggrAffinities
}

// NewHierarchy builds the standard tree on scheduler w.
func NewHierarchy(w *Scheduler, cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{Sched: w, Serial: w.Root()}
	for i := 0; i < cfg.Aggregates; i++ {
		ai := cfg.FirstAggr + i
		aggr := &AggrAffinities{}
		aggr.Aggr = w.AddChild(h.Serial, KindAggregate, fmt.Sprintf("aggr%d", ai))
		aggr.AggrVBN = w.AddChild(aggr.Aggr, KindAggrVBN, fmt.Sprintf("aggr%d.vbn", ai))
		for r := 0; r < cfg.RangesPerVBN; r++ {
			aggr.Ranges = append(aggr.Ranges,
				w.AddChild(aggr.AggrVBN, KindRange, fmt.Sprintf("aggr%d.vbn.range%d", ai, r)))
		}
		for vi := 0; vi < cfg.VolumesPerAgg; vi++ {
			vol := &VolAffinities{}
			vol.Volume = w.AddChild(aggr.Aggr, KindVolume, fmt.Sprintf("aggr%d.vol%d", ai, vi))
			vol.Logical = w.AddChild(vol.Volume, KindVolumeLogical, fmt.Sprintf("aggr%d.vol%d.logical", ai, vi))
			for si := 0; si < cfg.StripesPerVol; si++ {
				vol.Stripes = append(vol.Stripes,
					w.AddChild(vol.Logical, KindStripe, fmt.Sprintf("aggr%d.vol%d.stripe%d", ai, vi, si)))
			}
			vol.VolVBN = w.AddChild(vol.Volume, KindVolumeVBN, fmt.Sprintf("aggr%d.vol%d.vbn", ai, vi))
			for r := 0; r < cfg.RangesPerVBN; r++ {
				vol.Ranges = append(vol.Ranges,
					w.AddChild(vol.VolVBN, KindRange, fmt.Sprintf("aggr%d.vol%d.vbn.range%d", ai, vi, r)))
			}
			aggr.Volumes = append(aggr.Volumes, vol)
		}
		h.Aggrs = append(h.Aggrs, aggr)
	}
	return h
}

// String renders the hierarchy as an indented tree with per-affinity message
// counts, for wafltop and debugging.
func (h *Hierarchy) String() string {
	var b strings.Builder
	var rec func(a *Affinity, depth int)
	rec = func(a *Affinity, depth int) {
		fmt.Fprintf(&b, "%s%s [%s] executed=%d\n",
			strings.Repeat("  ", depth), a.Name(), a.Kind(), a.Executed)
		for _, c := range a.Children() {
			rec(c, depth+1)
		}
	}
	rec(h.Serial, 0)
	return b.String()
}
