package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type smokeResult struct {
	rep   *report
	lines map[string]string // metric name -> unit, from the "name value unit" lines
	last  map[string]json.RawMessage
}

// smoke runs one workload at the smoke size, one pass (two when traced).
func smoke(t *testing.T, workload string, trace bool) smokeResult {
	t.Helper()
	o := options{
		workload: workload, seed: 1, size: "smoke", trace: trace,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
	var stderr bytes.Buffer
	rep, err := measure(o, &stderr)
	if err != nil {
		t.Fatalf("measure: %v\n%s", err, stderr.String())
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || !rep.verified {
		t.Fatalf("%s: %d of %d trials failed, digests verified=%v\n%s", workload, rep.failed, rep.attempted, rep.verified, stderr.String())
	}
	res := smokeResult{rep: rep, lines: map[string]string{}}
	text := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, l := range text {
		if f := strings.Fields(l); len(f) == 3 {
			res.lines[f[0]] = f[2]
		}
	}
	if err := json.Unmarshal([]byte(text[len(text)-1]), &res.last); err != nil {
		t.Fatalf("last line is not the result JSON: %v", err)
	}
	return res
}

func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		name := sw.Name
		t.Run(name, func(t *testing.T) {
			a := smoke(t, name, false)
			for _, m := range spec.EndToEnd {
				if got, ok := a.lines[m.Name]; !ok || got != m.Unit {
					t.Errorf("end-to-end metric %s: printed unit %q (printed: %v), want %q", m.Name, got, ok, m.Unit)
				}
			}
			var metrics map[string]json.RawMessage
			if err := json.Unmarshal(a.last["metrics"], &metrics); err != nil || len(metrics) != len(spec.EndToEnd) {
				t.Errorf("result metrics = %v (%v), want the %d end-to-end metrics", metrics, err, len(spec.EndToEnd))
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := a.last[k]; !ok {
					t.Errorf("result has no %q", k)
				}
			}
			if len(a.last) != 4 {
				t.Errorf("result has %d keys, want correct, attempted, failed, metrics", len(a.last))
			}

			// Tracing off must mean no span recorder and no profile.
			if a.rep.tr != nil || len(a.rep.profiles) != 0 {
				t.Errorf("untraced run recorded spans or a profile")
			}
			if _, err := os.Stat(a.rep.o.traceOut); !os.IsNotExist(err) {
				t.Errorf("untraced run wrote %s", a.rep.o.traceOut)
			}

			if b := smoke(t, name, false); b.rep.counts != a.rep.counts {
				t.Errorf("layer counts differ between two runs:\n%+v\n%+v", a.rep.counts, b.rep.counts)
			}

			tr := smoke(t, name, true)
			for _, m := range spec.PerLayer {
				if got, ok := tr.lines[m.Name]; !ok || got != m.Unit {
					t.Errorf("per-layer metric %s: printed unit %q (printed: %v), want %q", m.Name, got, ok, m.Unit)
				}
			}
			if tr.rep.counts != a.rep.counts {
				t.Errorf("traced run's layer counts differ from the untraced run's")
			}
			f, err := os.Open(tr.rep.o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var doc struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Dur  float64
				}
			}
			if err := json.NewDecoder(f).Decode(&doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("span file: %v, %d events", err, len(doc.TraceEvents))
			}
		})
	}
}

func TestListMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out, io.Discard); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	listed := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if f := strings.Fields(l); len(f) == 2 {
			listed[f[0]] = f[1]
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if listed[m.Name] != m.Unit {
			t.Errorf("%s: -list says unit %q, BENCHMARK.json %q", m.Name, listed[m.Name], m.Unit)
		}
	}
	if len(listed) != len(spec.EndToEnd)+len(spec.PerLayer) {
		t.Errorf("-list prints %d metrics, BENCHMARK.json names %d", len(listed), len(spec.EndToEnd)+len(spec.PerLayer))
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "scan", "-trace", "2"},
		{"-workload", "scan", "-size", "huge"},
		{"-workload", "scan", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestGroupOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"graybox/internal/cache.(*Cache).Insert"}, "cache"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.wakep", "runtime.chansend", "graybox/internal/sim.(*Proc).park"}, "runtime.sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "graybox/internal/fs.(*FS).allocBlocks"}, "runtime.gc"},
		{[]string{"runtime.memmove", "graybox/internal/cache.(*Cache).Restore"}, "cache"},
		{[]string{"sort.insertionSort", "graybox/internal/core/fldc.(*Layer).OrderByINumber"}, "core"},
		{[]string{"graybox/internal/experiments.RunTrials[go.shape.struct { graybox/internal/sim.x int }]"}, "experiments"},
		{[]string{"crypto/sha256.block", "main.(*digester).sum"}, "other"},
		{[]string{"graybox/internal/ring.(*List[...]).MoveToBack"}, "other"},
	} {
		if got := groupOf(c.stack); got != c.want {
			t.Errorf("groupOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
