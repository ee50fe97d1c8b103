package wafl

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// runTraced builds a system with the given tracing setting, runs the
// standard small sequential-write workload, and returns the system and its
// measurement. The workload is fully deterministic for a fixed config.
func runTraced(t *testing.T, trace bool) (*System, Results) {
	t.Helper()
	cfg := smallConfig()
	cfg.Trace = trace
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ino := sys.CreateFileDirect(0, 1<<14)
	sys.ClientThread("writer", func(c *ClientCtx) {
		i := 0
		for c.Alive() {
			c.Write(0, ino, FBN((i*8)%8192), 8)
			i++
		}
	})
	res := sys.Measure(50*Millisecond, 150*Millisecond)
	return sys, res
}

// TestTracingDeterminism is the regression guard for the observability
// spine's core contract: enabling tracing must not change simulation
// results in any way — same event count, same throughput, same latencies.
func TestTracingDeterminism(t *testing.T) {
	sysOff, resOff := runTraced(t, false)
	evOff, swOff := sysOff.Events(), sysOff.Stats().Sched.Switches
	sysOff.Shutdown()
	sysOn, resOn := runTraced(t, true)
	evOn, swOn := sysOn.Events(), sysOn.Stats().Sched.Switches
	defer sysOn.Shutdown()

	// Every layer's window counters and every latency histogram, by value.
	if !reflect.DeepEqual(resOff, resOn) {
		t.Fatalf("tracing changed results:\noff: %+v\non:  %+v", resOff, resOn)
	}
	if evOff != evOn || swOff != swOn {
		t.Fatalf("tracing changed the simulation's event or thread-switch count: off=%d/%d on=%d/%d", evOff, swOff, evOn, swOn)
	}
	if sysOff.Tracer() != nil {
		t.Fatal("tracing off but Tracer() non-nil")
	}
	if sysOn.Tracer() == nil || sysOn.Tracer().Len() == 0 {
		t.Fatal("tracing on but no events recorded")
	}
}

func TestTraceExport(t *testing.T) {
	sys, _ := runTraced(t, true)
	defer sys.Shutdown()

	var buf bytes.Buffer
	if err := sys.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int32          `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// Timestamps must be sorted; distinct tracks must exist for cleaner
	// threads, client ops, affinities, CP phases, and drives.
	lastTs := -1.0
	threadNames := map[string]bool{}
	pids := map[int32]bool{}
	eventNames := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "thread_name" {
				if n, ok := e.Args["name"].(string); ok {
					threadNames[n] = true
				}
			}
			continue
		}
		if e.Ts < lastTs {
			t.Fatalf("events not timestamp-ordered at %q: %v < %v", e.Name, e.Ts, lastTs)
		}
		lastTs = e.Ts
		pids[e.Pid] = true
		eventNames[e.Name] = true
	}

	hasPrefix := func(prefix string) bool {
		for n := range threadNames {
			if strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}
	for _, prefix := range []string{"cleaner-", "waff-worker-", "core", "cp-engine", "writer"} {
		if !hasPrefix(prefix) {
			t.Fatalf("no track named %s*; tracks: %v", prefix, threadNames)
		}
	}
	// Affinity tracks are interned on first message, so assert on the
	// stripe and range affinities the write workload necessarily exercises.
	hasSubstr := func(sub string) bool {
		for n := range threadNames {
			if strings.Contains(n, sub) {
				return true
			}
		}
		return false
	}
	if !hasSubstr(".stripe") || !hasSubstr(".range") {
		t.Fatalf("no stripe/range affinity tracks; tracks: %v", threadNames)
	}
	for _, pid := range []int32{1, 2, 3, 4, 5, 6} { // cores..infra
		if !pids[pid] {
			t.Fatalf("no events under pid %d; pids: %v", pid, pids)
		}
	}
	for _, name := range []string{"write", "CP", "clean", "enqueue"} {
		if !eventNames[name] {
			t.Fatalf("no %q events in trace", name)
		}
	}

	if !strings.Contains(sys.TraceReport(), "client.write") {
		t.Fatalf("TraceReport lacks client.write histogram:\n%s", sys.TraceReport())
	}
}

// TestTraceForensics verifies the double-allocation forensics moved from
// the old WAFL_TRACE global map onto the tracer: committed blocks carry a
// note naming the committing context.
func TestTraceForensics(t *testing.T) {
	sys, _ := runTraced(t, true)
	defer sys.Shutdown()
	tr := sys.Tracer()
	// Find any committed block by scanning the activemap for a set bit.
	found := false
	for bn := uint64(1); bn < 4096 && !found; bn++ {
		if note := tr.BlockNote(bn); strings.Contains(note, "commitBucket") {
			found = true
		}
	}
	if !found {
		t.Fatal("no commitBucket forensic note recorded for any early block")
	}
}
