package wafl

import (
	"errors"
	"fmt"
	"reflect"
	"strings"

	"wafl/internal/fifo"
	"wafl/internal/obs"
)

// Stats is every layer's counters in one value: the structs the layers
// already keep, composed. System.Stats returns the cumulative cluster-wide
// value, System.MemberStats one member's, and Results.Stats the change over
// a measurement window (Sub of two cumulative values).
//
// Every leaf is an integer (or a Duration) combined by one rule, chosen by
// its `stat` struct tag:
//
//   - no tag: a counter. Members add; a window is end minus start.
//   - `stat:"gauge"`: a level. Members add; a window keeps its end value.
//   - `stat:"max"`: a high-water mark. Members take the larger; a window
//     keeps its end value.
//
// Lat, the one histogram, merges across members and subtracts over a
// window. Publishing a new counter is adding a field to its layer's struct:
// fold, Each and String reach it by reflection, and a field of a kind with
// no rule panics by name the first time Stats is called.
type Stats struct {
	Client    ClientStats
	Admission AdmissionStats
	Infra     InfraCounters  // White Alligator infrastructure (buckets, tetrises, fills)
	Pool      PoolStats      // cleaner-thread pool
	CP        CPStats        // consistency-point engine
	BCache    BCacheStats    // buffer cache (zero when Config.BCacheBlocks is 0)
	RAID      RAIDStats      // summed over RAID groups
	Drives    DriveStats     // summed over every data and parity drive
	Waffinity WaffinityStats // affinity message scheduler
	Faults    FaultStats     // injection decisions (zero when Config.Faults is)
	Repairs   RepairStats    // raw-read-path retries and reconstructions

	// CPCount is the aggregate's committed consistency-point generation. It
	// is persistent — a recovered system reports the generation it mounted —
	// unlike CP.CPs, which counts the CPs the engines ran to completion.
	CPCount uint64

	Cleaners int   `stat:"gauge"` // active cleaner threads
	VolFree  int64 `stat:"gauge"` // allocatable VVBNs across the client volumes (loosely accounted)
	AggrFree int64 `stat:"gauge"` // aggregate free blocks (loosely accounted)
	Reserved int64 `stat:"gauge"` // PlaceFile ingest reservations not yet written or refunded

	// Lat is the client op latency histogram (log-linear buckets). Never
	// shared with the live system or with another Stats value.
	Lat *obs.Histogram
}

// ClientStats are the facade's client-op totals.
type ClientStats struct {
	Ops           uint64 // ops acknowledged, served or refused (= Lat.Count)
	BlocksWritten uint64
	BlocksRead    uint64
	Stalls        uint64   // stall rounds: NVRAM log full, or a SnapRestore gate closed
	StallTime     Duration // time writes spent in those rounds
}

// AdmissionStats is admission-control activity (Config.Admission).
type AdmissionStats struct {
	Shed  uint64   // bulk writes refused
	Delay Duration // cumulative delay applied to bulk writes
}

// foldOp is one of the three ways two Stats values combine.
type foldOp int

const (
	opAdd   foldOp = iota // side by side (members of a cluster, groups, drives)
	opCarry               // one after the other (a member's incarnations across a remount)
	opSub                 // end minus start (a window)
)

// combine applies op to one integer leaf, the field name tagged stat:"tag":
// a is the value folded into (for opSub the end of the window, for opCarry
// the live incarnation), b the other.
func combine[T int64 | uint64](op foldOp, name, tag string, a, b T) T {
	switch tag {
	case "":
		if op == opSub {
			return a - b
		}
		return a + b
	case "gauge":
		if op == opAdd {
			return a + b
		}
		return a
	case "max":
		if op == opSub {
			return a
		}
		return max(a, b)
	default:
		panic(fmt.Sprintf("wafl: Stats field %s has unknown tag stat:%q", name, tag))
	}
}

// fold combines src into dst (both the same struct type, dst addressable)
// leaf by leaf; name and tag are those of the field dst is. It is the cluster
// roll-up, the sum over RAID groups and drives, the continuation across a
// remount and the window delta — the one place that knows how a counter, a
// gauge, a high-water mark and a histogram combine. It never stores src's
// histogram in dst; adding merges into dst's own, so dst must not share it
// (a roll-up starts from the zero value).
func fold(op foldOp, dst, src reflect.Value, name, tag string) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			f := dst.Type().Field(i)
			fold(op, dst.Field(i), src.Field(i), f.Name, f.Tag.Get("stat"))
		}
	case reflect.Uint64:
		dst.SetUint(combine(op, name, tag, dst.Uint(), src.Uint()))
	case reflect.Int, reflect.Int64:
		dst.SetInt(combine(op, name, tag, dst.Int(), src.Int()))
	default:
		d, ok := dst.Interface().(*obs.Histogram)
		if !ok {
			panic(fmt.Sprintf("wafl: Stats field %s is a %s, which has no fold rule", name, dst.Type()))
		}
		s := src.Interface().(*obs.Histogram)
		switch {
		case op == opSub && d != nil:
			d = d.Delta(s)
		case op != opSub && s != nil:
			if d == nil {
				d = obs.NewHistogram(s.Name)
			}
			d.Merge(s)
		}
		dst.Set(reflect.ValueOf(d))
	}
}

// foldInto folds src into *dst; T is Stats or one layer's struct.
func foldInto[T any](op foldOp, dst *T, src T) {
	fold(op, reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), "", "")
}

// Sub returns the change from prev to st, two cumulative values of the same
// system or member with prev the earlier: counters subtract, gauges and
// high-water marks keep st's value, Lat holds the samples recorded between.
func (st Stats) Sub(prev Stats) Stats {
	foldInto(opSub, &st, prev)
	return st
}

// Each calls fn for every counter, gauge and high-water mark of st in
// declaration order, named by its path ("CP.AmapWrites", "Cleaners").
// Durations are passed as nanoseconds; the histogram is not visited.
func (st Stats) Each(fn func(name string, v int64)) {
	eachLeaf(reflect.ValueOf(st), "", func(name string, v reflect.Value) {
		if v.CanInt() {
			fn(name, v.Int())
		} else {
			fn(name, int64(v.Uint()))
		}
	})
}

// eachLeaf walks the integer leaves of struct v, naming each by its path.
func eachLeaf(v reflect.Value, prefix string, fn func(name string, v reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			eachLeaf(f, name+".", fn)
		case reflect.Uint64, reflect.Int, reflect.Int64:
			fn(name, f)
		}
	}
}

// leaks returns an error naming every pool of st (a fifo.PoolStats) with
// records outstanding: taken, and neither returned nor abandoned.
func (st Stats) leaks() error {
	var errs []error
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			if p, ok := f.Interface().(fifo.PoolStats); ok {
				if n := p.Outstanding(); n != 0 {
					errs = append(errs, fmt.Errorf("%s: %d records outstanding (taken %d, returned %d, abandoned %d)",
						name, n, p.Taken, p.Returned, p.Abandoned))
				}
			} else if f.Kind() == reflect.Struct {
				walk(f, name+".")
			}
		}
	}
	walk(reflect.ValueOf(st), "")
	return errors.Join(errs...)
}

// String renders the non-zero leaves, one layer per line
// ("CP: CPs=3 InodesCleaned=5086 TotalDuration=39.105ms ..."); the system-wide
// scalars share the last line, and Lat's summary follows when it has samples.
func (st Stats) String() string {
	var b strings.Builder
	line := "" // the layer whose line is open
	eachLeaf(reflect.ValueOf(st), "", func(name string, v reflect.Value) {
		if v.IsZero() {
			return
		}
		layer, field, ok := strings.Cut(name, ".")
		if !ok {
			layer, field = "System", name
		}
		if layer != line {
			if line != "" {
				b.WriteByte('\n')
			}
			b.WriteString(layer + ":")
			line = layer
		}
		fmt.Fprintf(&b, " %s=%v", field, v.Interface())
	})
	if st.Lat != nil && st.Lat.Count > 0 {
		fmt.Fprintf(&b, "\n%v", st.Lat)
	}
	return b.String()
}
