package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"graybox/internal/audit"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/telemetry"
)

// withParallelism runs f at pool width n and restores the default.
func withParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	SetParallelism(n)
	defer SetParallelism(0)
	f()
}

func TestRunTrialsOrderAndWidth(t *testing.T) {
	withParallelism(t, 4, func() {
		if got := Parallelism(); got != 4 {
			t.Fatalf("Parallelism() = %d, want 4", got)
		}
		var inFlight, peak atomic.Int64
		out := RunTrials(64, func(i int) int {
			cur := inFlight.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			defer inFlight.Add(-1)
			return i * i
		})
		for i, v := range out {
			if v != i*i {
				t.Fatalf("out[%d] = %d, want %d (results must keep index order)", i, v, i*i)
			}
		}
		if p := peak.Load(); p > 4 {
			t.Errorf("peak concurrency %d exceeds pool width 4", p)
		}
	})
}

func TestRunTrialsPanicPropagates(t *testing.T) {
	withParallelism(t, 4, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("trial panic was swallowed")
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "trial 3 panicked: boom") {
				t.Fatalf("panic payload %v, want lowest-index trial failure", r)
			}
		}()
		RunTrials(8, func(i int) int {
			if i >= 3 {
				panic("boom")
			}
			return i
		})
	})
}

func TestRunTrialsZeroAndSequential(t *testing.T) {
	if out := RunTrials(0, func(i int) int { return i }); len(out) != 0 {
		t.Errorf("RunTrials(0) returned %v", out)
	}
	withParallelism(t, 1, func() {
		last := -1
		RunTrials(16, func(i int) int {
			if i != last+1 {
				t.Fatalf("sequential pool ran trial %d after %d", i, last)
			}
			last = i
			return i
		})
	})
}

// goldenPath holds the SHA-256 of each export of TestParallelDeterminism's
// sequential render: the committed reference every engine change must
// reproduce byte for byte.
const goldenPath = "testdata/golden.sum"

// TestParallelDeterminism is the tentpole's correctness gate: fan-out must
// not perturb results. Every trial owns its platform (one engine, one RNG,
// one virtual clock), so the rendered table must be byte-identical between
// a sequential run and a wide pool — and so must the telemetry exports
// (Chrome trace and metrics snapshot) and the oracle-grounded audit
// report collected along the way. The sequential render must also match
// the committed digests in goldenPath.
func TestParallelDeterminism(t *testing.T) {
	EnableTelemetry(true)
	EnableAudit(true)
	defer func() {
		EnableTelemetry(false)
		EnableAudit(false)
	}()
	TakeTelemetry() // drain whatever earlier tests accumulated
	TakeAudits()
	render := func(n int) (tables, trace, metrics, audits string) {
		var b strings.Builder
		withParallelism(t, n, func() {
			b.WriteString(Fig2(Fig2Config{Scale: QuickScale()}).String())
			b.WriteString(Fig5(Fig5Config{Scale: QuickScale()}).String())
			b.WriteString(PriorArtSweeps().String())
			// Two intensity points keep the contention sweep fast while
			// still exercising workload-concurrent trials at both widths.
			b.WriteString(Noise(NoiseConfig{Scale: QuickScale(), Intensities: []float64{0, 0.75}}).String())
			// One quota x intensity point (2 arms, naive vs gray-box)
			// covers the stash tier: tier disk, Preload, audit.
			b.WriteString(Stash(StashConfig{Scale: QuickScale(), QuotaFracs: []float64{0.25}, Intensities: []float64{0.5}}).String())
			// One load level (2 arms) covers the request-tracing path:
			// sketches, SLO tracker, per-request span trees, and the
			// MAC admission controller, with trial-side telemetry on.
			b.WriteString(Slo(SloConfig{Scale: QuickScale(), Loads: []float64{300}, Duration: 500 * sim.Millisecond}).String())
			// The same sweeps on contended machines (CPUs=1 and 2):
			// the SMP scheduler's run queues, timeslice preemption, and
			// dispatch order must be as deterministic as everything
			// above, across pool widths.
			b.WriteString(Noise(NoiseConfig{Scale: QuickScale(), Intensities: []float64{0.75}, CPUList: []int{1, 2}}).String())
			b.WriteString(Slo(SloConfig{Scale: QuickScale(), Loads: []float64{300}, Duration: 500 * sim.Millisecond, CPUList: []int{1, 2}}).String())
		})
		regs := TakeTelemetry()
		var tr, mt, au bytes.Buffer
		if err := telemetry.WriteChromeTrace(&tr, regs); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteMetricsJSON(&mt, regs); err != nil {
			t.Fatal(err)
		}
		if err := audit.WriteJSON(&au, TakeAudits()); err != nil {
			t.Fatal(err)
		}
		return b.String(), tr.String(), mt.String(), au.String()
	}
	seqTab, seqTrace, seqMetrics, seqAudit := render(1)
	var sums strings.Builder
	for _, o := range [][2]string{{"tables", seqTab}, {"trace", seqTrace}, {"metrics", seqMetrics}, {"audit", seqAudit}} {
		fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256([]byte(o[1])), o[0])
	}
	checkFile(t, goldenPath, sums.String())
	parTab, parTrace, parMetrics, parAudit := render(8)
	if seqTab != parTab {
		t.Errorf("-parallel 8 output differs from sequential run:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqTab, parTab)
	}
	if seqTrace != parTrace {
		t.Error("-parallel 8 Chrome trace differs from sequential run")
	}
	if seqMetrics != parMetrics {
		t.Error("-parallel 8 metrics snapshot differs from sequential run")
	}
	if seqAudit != parAudit {
		t.Error("-parallel 8 audit report differs from sequential run")
	}
	// The exports must actually contain the instrumented stack, ICLs
	// included (fig2 drives FCCD probes).
	for _, want := range []string{"syscall.read_byte_ns", "fccd.probe_ns", "disk0.reads",
		"sched.cpu0.runnable", "sched.cpu0.switches"} {
		if !strings.Contains(seqMetrics, want) {
			t.Errorf("metrics export missing %q", want)
		}
	}
	if !strings.Contains(seqTrace, "traceEvents") {
		t.Error("trace export is not a Chrome trace_event document")
	}
	// The audit report must actually score the ICL predictions fig2 made.
	if !strings.Contains(seqAudit, "fccd") {
		t.Error("audit report missing FCCD section")
	}
}

func TestTakeTelemetry(t *testing.T) {
	EnableTelemetry(true)
	defer EnableTelemetry(false)
	TakeTelemetry() // drain
	s := newSystem(simos.Linux22, QuickScale(), 1)
	mustRun(s, "tick", func(os *simos.OS) { os.Sleep(sim.Millisecond) })
	regs := TakeTelemetry()
	if len(regs) != 1 {
		t.Fatalf("TakeTelemetry returned %d registries, want 1", len(regs))
	}
	if regs[0] != s.Telemetry() {
		t.Error("collected registry is not the platform's")
	}
	if again := TakeTelemetry(); len(again) != 0 {
		t.Errorf("second TakeTelemetry returned %d registries, want 0 (accumulator resets)", len(again))
	}
}

func TestTakeAudits(t *testing.T) {
	EnableAudit(true)
	defer EnableAudit(false)
	TakeAudits() // drain
	s := newSystem(simos.Linux22, QuickScale(), 1)
	mustRun(s, "tick", func(os *simos.OS) { os.Sleep(sim.Millisecond) })
	auds := TakeAudits()
	if len(auds) != 1 {
		t.Fatalf("TakeAudits returned %d auditors, want 1", len(auds))
	}
	if auds[0] != s.Audit() {
		t.Error("collected auditor is not the platform's")
	}
	if again := TakeAudits(); len(again) != 0 {
		t.Errorf("second TakeAudits returned %d auditors, want 0 (accumulator resets)", len(again))
	}
}

func TestTakeVirtualTime(t *testing.T) {
	TakeVirtualTime() // drain whatever earlier tests accumulated
	s := newSystem(simos.Linux22, QuickScale(), 1)
	mustRun(s, "tick", func(os *simos.OS) { os.Sleep(sim.Millisecond) })
	if vt := TakeVirtualTime(); vt <= 0 {
		t.Errorf("TakeVirtualTime = %v, want > 0 after a run", vt)
	}
	if vt := TakeVirtualTime(); vt != 0 {
		t.Errorf("TakeVirtualTime = %v on second call, want 0 (accumulator resets)", vt)
	}
}
