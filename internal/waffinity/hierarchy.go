package waffinity

import (
	"fmt"
	"strings"
)

// HierarchyConfig sizes the standard Hierarchical Waffinity tree of Fig 1.
type HierarchyConfig struct {
	VolumesPerAgg int // Volume affinity instances
	StripesPerVol int // Stripe affinity instances per Volume Logical
	RangesPerVBN  int // Range affinity instances per {Volume,Aggr} VBN
	FirstAggr     int // the aggregate's number in affinity names (cluster members)
}

// VolAffinities groups the affinity instances belonging to one volume.
type VolAffinities struct {
	Volume  *Affinity   // per-volume serial work
	Logical *Affinity   // Volume Logical: client-facing file operations
	Stripes []*Affinity // stripes of user files, under Logical
	VolVBN  *Affinity   // volume allocation-metafile work
	Ranges  []*Affinity // block ranges of volume metafiles, under VolVBN
}

// Hierarchy is a fully built Hierarchical Waffinity tree (paper Fig 1) over
// one aggregate; each cluster member builds its own:
//
//	Serial
//	└── Aggregate
//	    ├── AggrVBN ── Range[r]
//	    └── Volume[v]
//	        ├── VolLogical ── Stripe[s]
//	        └── VolVBN ── Range[r]
type Hierarchy struct {
	Serial  *Affinity
	Aggr    *Affinity
	AggrVBN *Affinity   // aggregate allocation-metafile work
	Ranges  []*Affinity // block ranges of aggregate metafiles, under AggrVBN
	Volumes []*VolAffinities
}

// NewHierarchy builds the standard tree on scheduler w.
func NewHierarchy(w *Scheduler, cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{Serial: w.Root()}
	ai := cfg.FirstAggr
	h.Aggr = w.AddChild(h.Serial, KindAggregate, fmt.Sprintf("aggr%d", ai))
	h.AggrVBN = w.AddChild(h.Aggr, KindAggrVBN, fmt.Sprintf("aggr%d.vbn", ai))
	for r := 0; r < cfg.RangesPerVBN; r++ {
		h.Ranges = append(h.Ranges,
			w.AddChild(h.AggrVBN, KindRange, fmt.Sprintf("aggr%d.vbn.range%d", ai, r)))
	}
	for vi := 0; vi < cfg.VolumesPerAgg; vi++ {
		vol := &VolAffinities{}
		vol.Volume = w.AddChild(h.Aggr, KindVolume, fmt.Sprintf("aggr%d.vol%d", ai, vi))
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
		h.Volumes = append(h.Volumes, vol)
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
