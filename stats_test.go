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
	want := rollUp(sys.MemberStats(0), sys.MemberStats(1))
	foldInto(opAdd, &want.Sched, sys.s.Stats())
	if !reflect.DeepEqual(before, want) {
		t.Fatalf("Stats() is not the fold of its members:\n got %+v\nwant %+v", before, want)
	}
	// The scheduler is the cluster's, not a member's: its waits are counted
	// once, and a member's share has none.
	live := sys.s.Stats()
	if before.Sched.RunQueueWait.Count != live.RunQueueWait.Count || before.Sched.MutexWait.Count != live.MutexWait.Count ||
		before.Sched.WaitQueueWait.Count != live.WaitQueueWait.Count || before.Sched.WaitQueueWait.Count == 0 {
		t.Fatalf("Stats().Sched %v %v %v, want the scheduler's own %v %v %v once",
			before.Sched.RunQueueWait, before.Sched.MutexWait, before.Sched.WaitQueueWait,
			live.RunQueueWait, live.MutexWait, live.WaitQueueWait)
	}
	for i := 0; i < 2; i++ {
		if st := sys.MemberStats(i).Sched; st != (SchedStats{}) {
			t.Errorf("member %d reports scheduler waits %+v", i, st)
		}
	}
	for _, name := range []string{"Client.Ops", "Infra.BucketsFilled", "Pool.JobsRun", "CP.CPs",
		"RAID.FullStripeWrites", "Drives.BlocksWritten", "Waffinity.Executed", "CPCount", "Cleaners"} {
		if leafMap(sys.MemberStats(1))[name] == 0 {
			t.Errorf("member 1 reports no %s: the layer is not wired into Member.stats", name)
		}
	}

	res, _ := sys.MeasureMembers(0, 40*Millisecond)
	merged := res.Stats
	want = sys.Stats().Sub(before)
	if got, want := leafMap(merged), leafMap(want); !reflect.DeepEqual(got, want) {
		for name, v := range want {
			if got[name] != v {
				t.Errorf("merged window %s = %d, cluster after-before = %d", name, got[name], v)
			}
		}
	}
	// Bucket counts agree exactly; the window's Min/Max are recovered per
	// histogram to within one bucket, so they are compared through a quantile.
	got, wantH := histsOf(merged), histsOf(want)
	if len(got) != len(wantH) || len(got) < 20 {
		t.Fatalf("merged window has %d histograms with samples, cluster after-before %d", len(got), len(wantH))
	}
	for i, h := range got {
		if w := wantH[i]; h.Name != w.Name || h.Count != w.Count || h.Sum != w.Sum || h.Quantile(0.5) != w.Quantile(0.5) {
			t.Errorf("merged window %v, cluster after-before %v", h, w)
		}
	}
	if merged.Client.Ops == 0 || merged.Lat.Count != merged.Client.Ops {
		t.Errorf("window saw %d ops and %d latency samples", merged.Client.Ops, merged.Lat.Count)
	}
}

// TestStatsViews pins the seven bench-only accessors and the tracer's
// Histograms to the Stats fields they are views of, and Stats.String to one
// line per layer with a counter in it.
func TestStatsViews(t *testing.T) {
	cfg := smallConfig()
	cfg.BCacheBlocks = 64
	cfg.Trace = true
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
	if !reflect.DeepEqual(sys.Counters(), st.Infra) || !reflect.DeepEqual(sys.CPStats(), st.CP) || sys.BCacheStats() != st.BCache ||
		sys.CPCount() != st.CPCount || shed != st.Admission.Shed || delay != Duration(st.Admission.Delay.Sum) {
		t.Fatal("a bench view disagrees with the Stats field it reads")
	}
	if hs := sys.Tracer().Histograms(); !reflect.DeepEqual(hs, histsOf(st)) || len(hs) < 20 {
		t.Fatalf("the tracer's %d histograms are not the %d of Stats", len(hs), len(histsOf(st)))
	}
	if r := sys.TraceReport(); r != st.String() || !strings.Contains(r, "\nclient.write: n=") {
		t.Fatalf("TraceReport is not the render of Stats:\n%s", r)
	}
	if r := sys.CPPhaseReport(); r != (Stats{CP: st.CP}).String()+"\n" || !strings.Contains(r, "\ncp.phase.freeze+zombies: n=") {
		t.Fatalf("CPPhaseReport is not the render of Stats.CP:\n%s", r)
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

// TestStatsRecordUntraced: with tracing off, a short nfs-like run (writes,
// reads over a working set larger than its buffer cache, getattrs) records a
// sample in every histogram its ops reach, so no distribution needs a trace.
// The rest wait on what the run never does: NVRAM-full stalls, admission, a
// SnapRestore, a clone, a snapshot delete.
func TestStatsRecordUntraced(t *testing.T) {
	cfg := smallConfig()
	cfg.BCacheBlocks = 256
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	for v := 0; v < cfg.Volumes; v++ {
		v, ino := v, sys.CreateFileDirect(v, 1<<12)
		for k := 0; k < 3; k++ {
			sys.ClientThread("nfs", func(c *ClientCtx) {
				for c.Alive() {
					fbn := FBN(c.Rand(2048))
					switch c.Rand(3) {
					case 0:
						c.Write(v, ino, fbn, 2)
					case 1:
						c.Read(v, ino, fbn, 2)
					default:
						c.Getattr(v, ino)
					}
				}
			})
		}
	}
	res := sys.Measure(20*Millisecond, 60*Millisecond)
	if sys.Tracer() != nil {
		t.Fatal("tracing is on")
	}
	idle := map[string]bool{"client.restore": true, "client.clone": true, "client.stall": true,
		"client.admit": true, "snap.reclaimed": true}
	var names []string
	eachHist(res.Stats, func(h *obs.Histogram) {
		names = append(names, h.Name)
		if idle[h.Name] != (h.Count == 0) {
			t.Errorf("%s has %d samples; the run reaches it: %v", h.Name, h.Count, !idle[h.Name])
		}
	})
	if len(names) < 30 {
		t.Fatalf("only %d histograms in Stats: %v", len(names), names)
	}
}

// TestStatsHistogramsAreCopies: every Stats value, cumulative, per member or
// over a window, holds its own histograms, so writing into one changes no
// later Stats.
func TestStatsHistogramsAreCopies(t *testing.T) {
	sys, _ := runTraced(t, false)
	defer sys.Shutdown()
	clobber := func(st Stats) {
		eachHist(st, func(h *obs.Histogram) { h.Observe(1 << 40) })
	}
	want, wantM := sys.Stats(), sys.MemberStats(0)
	clobber(sys.Stats())
	clobber(sys.MemberStats(0))
	res := sys.Measure(0, 0)
	clobber(res.Stats)
	if got := sys.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatal("writing into a returned Stats' histograms changed the next Stats()")
	}
	if got := sys.MemberStats(0); !reflect.DeepEqual(got, wantM) {
		t.Fatal("writing into a returned Stats' histograms changed the next MemberStats(0)")
	}
}

// eachHist calls fn for every histogram field of st that is set.
func eachHist(st Stats, fn func(*obs.Histogram)) {
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Struct {
				walk(f)
			} else if h, ok := f.Interface().(*obs.Histogram); ok && h != nil {
				fn(h)
			}
		}
	}
	walk(reflect.ValueOf(st))
}
