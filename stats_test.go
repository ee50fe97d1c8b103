package wafl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wafl/internal/obs"
)

// leaves visits every integer leaf of a Stats value (addressable, so the
// callback may set it) with its path and `stat` tag. It is the test's own
// walker, not Stats.each: a field of a kind it does not know fails the test,
// so a float64 or slice counter added to any layer's struct is caught here.
func leaves(t *testing.T, v reflect.Value, path, tag string, fn func(path, tag string, v reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			leaves(t, v.Field(i), path+"."+f.Name, f.Tag.Get("stat"), fn)
		}
	case reflect.Uint64, reflect.Int, reflect.Int64:
		if tag != "" && tag != "gauge" && tag != "max" {
			t.Fatalf("%s: unknown tag stat:%q", path, tag)
		}
		fn(path, tag, v)
	default:
		if _, ok := v.Interface().(*obs.Histogram); !ok {
			t.Fatalf("%s is a %s: no fold rule for that kind", path, v.Type())
		}
	}
}

// rollUp is what a cluster of members reporting parts reports.
func rollUp(parts ...Stats) Stats {
	var t Stats
	for _, p := range parts {
		foldInto(opAdd, &t, p)
	}
	return t
}

func leafValue(v reflect.Value) int64 {
	if v.Kind() == reflect.Uint64 {
		return int64(v.Uint())
	}
	return v.Int()
}

// primedStats fills every leaf with the next prime from next and records
// what it stored by path.
func primedStats(t *testing.T, next func() int64) (Stats, map[string]int64) {
	var st Stats
	vals := map[string]int64{}
	leaves(t, reflect.ValueOf(&st).Elem(), "Stats", "", func(path, _ string, v reflect.Value) {
		p := next()
		vals[path] = p
		if v.Kind() == reflect.Uint64 {
			v.SetUint(uint64(p))
		} else {
			v.SetInt(p)
		}
	})
	return st, vals
}

// TestFoldCoversEveryField fills every leaf of two Stats values with
// distinct primes and checks each leaf of the roll-up, the continuation
// across a remount and the window delta against its rule — by reflection,
// so the check covers fields added after it was written.
func TestFoldCoversEveryField(t *testing.T) {
	prime := int64(1)
	next := func() int64 {
		for {
			prime++
			isPrime := true
			for d := int64(2); d*d <= prime; d++ {
				if prime%d == 0 {
					isPrime = false
					break
				}
			}
			if isPrime {
				return prime
			}
		}
	}
	b, bv := primedStats(t, next) // the earlier, smaller value
	a, av := primedStats(t, next)
	if len(av) < 80 {
		t.Fatalf("only %d leaves visited; the walker lost a layer", len(av))
	}
	carried := a
	foldInto(opCarry, &carried, b)
	// b.Lat is an earlier snapshot of a.Lat, as a window's start is of its end.
	a.Lat = obs.NewHistogram("client.lat")
	a.Lat.Observe(3000)
	b.Lat = a.Lat.Clone()
	a.Lat.Observe(5000)
	a.Lat.Observe(7000)

	for _, c := range []struct {
		name string
		got  Stats
		want func(tag string, a, b int64) int64
	}{
		{"rollUp", rollUp(a, b), func(tag string, a, b int64) int64 {
			if tag == "max" {
				return max(a, b)
			}
			return a + b
		}},
		{"Sub", a.Sub(b), func(tag string, a, b int64) int64 {
			if tag == "" {
				return a - b
			}
			return a
		}},
		{"carry", carried, func(tag string, a, b int64) int64 {
			switch tag {
			case "gauge":
				return a
			case "max":
				return max(a, b)
			}
			return a + b
		}},
	} {
		leaves(t, reflect.ValueOf(&c.got).Elem(), "Stats", "", func(path, tag string, v reflect.Value) {
			if got, want := leafValue(v), c.want(tag, av[path], bv[path]); got != want {
				t.Errorf("%s: %s (tag %q) = %d, want %d from a=%d b=%d", c.name, path, tag, got, want, av[path], bv[path])
			}
		})
	}

	// Histograms: members merge, a window subtracts, and neither result shares
	// a histogram with (or disturbs) its inputs.
	sum, win := rollUp(a, b), a.Sub(b)
	if sum.Lat.Count != 4 || sum.Lat.Sum != 3000+3000+5000+7000 {
		t.Errorf("rollUp merged %d samples summing to %d, want 4 and 18000", sum.Lat.Count, sum.Lat.Sum)
	}
	if win.Lat.Count != 2 || win.Lat.Sum != 5000+7000 {
		t.Errorf("Sub left %d samples summing to %d, want 2 and 12000", win.Lat.Count, win.Lat.Sum)
	}
	for name, h := range map[string]*obs.Histogram{"rollUp": sum.Lat, "Sub": win.Lat} {
		if h == a.Lat || h == b.Lat {
			t.Errorf("%s aliases an input histogram", name)
		}
	}
	if a.Lat.Count != 3 || b.Lat.Count != 1 {
		t.Errorf("inputs disturbed: a has %d samples, b %d (want 3, 1)", a.Lat.Count, b.Lat.Count)
	}
	if z := (Stats{}).Sub(Stats{}); z.Lat != nil {
		t.Error("the zero window grew a histogram")
	}

	// A kind with no rule panics, naming the field.
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "field Rate ") {
				t.Errorf("float64 field: panic = %q, want it to name the field Rate", msg)
			}
		}()
		type bad struct{ Rate float64 }
		foldInto(opAdd, &bad{}, bad{})
	}()
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "field N ") {
				t.Errorf("unknown tag: panic = %q, want it to name the field N", msg)
			}
		}()
		type bad struct {
			N uint64 `stat:"mean"`
		}
		foldInto(opSub, &bad{}, bad{})
	}()
}

// leafMap collects Stats.Each into a map.
func leafMap(st Stats) map[string]int64 {
	m := map[string]int64{}
	st.Each(func(name string, v int64) { m[name] = v })
	return m
}

// TestStatsMembers2 checks, on a live two-member cluster, that the cluster
// value is the fold of the members' and that the per-member windows merge to
// exactly the cluster's after-minus-before, every layer's counters included.
func TestStatsMembers2(t *testing.T) {
	sys, err := NewSystem(clusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	for v := 0; v < sys.TotalVolumes(); v++ {
		v, ino := v, sys.CreateFileDirect(v, 1<<13)
		sys.ClientThread("load", func(c *ClientCtx) {
			for i := 0; c.Alive(); i++ {
				c.Write(v, ino, FBN((i*4)%4096), 4)
				c.Read(v, ino, FBN((i*4)%4096), 1)
			}
		})
	}
	sys.Run(20 * Millisecond)

	before := sys.Stats()
	if want := rollUp(sys.MemberStats(0), sys.MemberStats(1)); !reflect.DeepEqual(before, want) {
		t.Fatalf("Stats() is not the fold of its members:\n got %+v\nwant %+v", before, want)
	}
	for _, name := range []string{"Client.Ops", "Infra.BucketsFilled", "Pool.JobsRun", "CP.CPs",
		"RAID.FullStripeWrites", "Drives.BlocksWritten", "Waffinity.Executed", "CPCount", "Cleaners"} {
		if leafMap(sys.MemberStats(1))[name] == 0 {
			t.Errorf("member 1 reports no %s: the layer is not wired into Member.stats", name)
		}
	}

	res, _ := sys.MeasureMembers(0, 40*Millisecond)
	merged := res.Stats
	want := sys.Stats().Sub(before)
	if got, want := leafMap(merged), leafMap(want); !reflect.DeepEqual(got, want) {
		for name, v := range want {
			if got[name] != v {
				t.Errorf("merged window %s = %d, cluster after-before = %d", name, got[name], v)
			}
		}
	}
	// Bucket counts agree exactly; the window's Min/Max are recovered per
	// histogram to within one bucket, so they are compared through a quantile.
	if merged.Lat.Count != want.Lat.Count || merged.Lat.Sum != want.Lat.Sum ||
		merged.Lat.Quantile(0.5) != want.Lat.Quantile(0.5) {
		t.Errorf("merged window latency %v, cluster after-before %v", merged.Lat, want.Lat)
	}
	if merged.Client.Ops == 0 || merged.Lat.Count != merged.Client.Ops {
		t.Errorf("window saw %d ops and %d latency samples", merged.Client.Ops, merged.Lat.Count)
	}
}

// TestStatsViews pins the five bench-only accessors to the Stats fields they
// are views of, and Stats.String to one line per layer with a counter in it.
func TestStatsViews(t *testing.T) {
	cfg := smallConfig()
	cfg.BCacheBlocks = 64
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	ino := sys.CreateFileDirect(0, 1<<12)
	sys.ClientThread("load", func(c *ClientCtx) {
		for i := 0; c.Alive(); i++ {
			c.Write(0, ino, FBN((i*8)%2048), 8)
			c.Read(0, ino, FBN((i*8)%2048), 2)
		}
	})
	res := sys.Measure(20*Millisecond, 40*Millisecond)
	st := sys.Stats()
	shed, delay := sys.AdmissionStats()
	if sys.Counters() != st.Infra || sys.CPStats() != st.CP || sys.BCacheStats() != st.BCache ||
		sys.CPCount() != st.CPCount || shed != st.Admission.Shed || delay != st.Admission.Delay {
		t.Fatal("a bench view disagrees with the Stats field it reads")
	}
	if res.Ops != res.Stats.Client.Ops || res.CPs != res.Stats.CPCount || res.Cleaners != res.Stats.Cleaners {
		t.Fatalf("Results fields are not read off Results.Stats: %+v", res)
	}
	out := res.Stats.String()
	for _, layer := range []string{"Client:", "Infra:", "Pool:", "CP:", "BCache:", "RAID:", "Drives:", "Waffinity:", "System:", "client.lat:"} {
		if strings.Count(out, "\n"+layer)+strings.Count(out[:len(layer)], layer) != 1 {
			t.Errorf("String() has no single %q line:\n%s", layer, out)
		}
	}
	if strings.Contains(out, "=0 ") || strings.Contains(out, "Faults:") {
		t.Errorf("String() printed a zero counter or an idle layer:\n%s", out)
	}
}
