package wafl

import (
	"testing"

	"wafl/internal/block"
	"wafl/internal/nvlog"
)

// admissionLoad drives one member with hammering bulk writers per volume
// plus a paced latency-sensitive writer, and returns the LS latency
// histogram, the measured results, and the admission stats. The NVRAM
// halves are shrunk so the bulk load actually pressures the log.
func admissionLoad(t *testing.T, enabled bool) (*TraceHistogram, Results, uint64, Duration) {
	t.Helper()
	cfg := smallConfig()
	cfg.NVRAMHalfBytes = 256 << 10
	cfg.Admission.Enabled = enabled
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lsHist := NewHistogram("test.ls")
	for v := 0; v < cfg.Volumes; v++ {
		v := v
		lsIno := sys.CreateFileDirect(v, 1024)
		for b := 0; b < 4; b++ {
			bulkIno := sys.CreateFileDirect(v, 4096)
			sys.ClientThread("bulk", func(c *ClientCtx) {
				var fbn FBN
				for c.Alive() {
					c.WriteBulk(v, bulkIno, fbn%4000, 16)
					fbn += 16
				}
			})
		}
		sys.ClientThread("ls", func(c *ClientCtx) {
			var fbn FBN
			for c.Alive() {
				lat := c.Write(v, lsIno, fbn%1000, 1)
				lsHist.Observe(int64(lat))
				fbn++
				c.Think(200 * Microsecond)
			}
		})
	}
	res := sys.Measure(50*Millisecond, 200*Millisecond)
	shed, delay := sys.AdmissionStats()
	sys.Shutdown()
	return lsHist, res, shed, delay
}

// TestAdmissionShedsBulkUnderPressure checks the watermark mechanism: with
// admission off, the bulk load fills the NVRAM log and every writer —
// including the latency-sensitive one — stalls behind back-to-back CPs;
// with admission on, bulk writes are delayed and shed at the watermarks,
// the log stays below the stall point, and the LS writer's tail latency
// drops by an order of magnitude.
func TestAdmissionShedsBulkUnderPressure(t *testing.T) {
	offHist, offRes, offShed, offDelay := admissionLoad(t, false)
	onHist, onRes, onShed, onDelay := admissionLoad(t, true)

	if offShed != 0 || offDelay != 0 {
		t.Fatalf("admission-off gated ops (shed %d, delay %v) while disabled", offShed, offDelay)
	}
	if offRes.Stalls == 0 {
		t.Fatal("admission-off load never stalled the NVLog: test load too light to mean anything")
	}
	if onShed == 0 && onDelay == 0 {
		t.Fatal("admission-on neither delayed nor shed: controller never engaged")
	}
	if onRes.Stalls*2 > offRes.Stalls {
		t.Fatalf("admission barely reduced stalls: %d on vs %d off", onRes.Stalls, offRes.Stalls)
	}
	// Gating bulk must not hurt the latency-sensitive class (the tail
	// *improvement* at scale is asserted by harness.OverloadCheck, where
	// CPs are long enough for the stall regime to dominate the p99).
	offP99 := Duration(offHist.Quantile(0.99))
	onP99 := Duration(onHist.Quantile(0.99))
	if onP99 > 2*offP99 {
		t.Fatalf("LS p99 %v with admission worse than %v without", onP99, offP99)
	}
	// The SLO itself: with bulk gated, an LS single-block write's p99 is
	// service time plus modest queueing, far below the CP-stall regime.
	if onP99 > 5*Millisecond {
		t.Fatalf("admission-on LS p99 = %v, want < 5ms", onP99)
	}
}

// TestAdmissionHysteresis checks the back-to-back guard on the latch itself:
// once bulk is held, it stays held until fullness falls below admitResumeAt
// AND the frozen half has drained — the fullness drop at a CP half-switch
// alone must not release the gate (that is the flapping the hysteresis
// exists to prevent).
func TestAdmissionHysteresis(t *testing.T) {
	cfg := smallConfig()
	cfg.NVRAMHalfBytes = 256 << 10
	cfg.Admission.Enabled = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	m := sys.m0()
	gate := func(step string, want bool) {
		t.Helper()
		if held, full := m.bulkGate(); held != want {
			t.Fatalf("%s: gate held = %v at fullness %.2f, want %v", step, held, full, want)
		}
	}
	gate("empty log", false)
	for m.log.Fullness() < admitDelayAt {
		m.log.Append(nvlog.Record{Kind: nvlog.OpWrite, LogicalBytes: block.Size})
	}
	gate("past the delay watermark", true)
	m.log.Switch()
	gate("half-switch, frozen half draining", true)
	m.log.FreeFrozen()
	gate("frozen half freed", false)
}
