package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// buildRegistry constructs a small, fully-populated registry.
func buildRegistry(label string) *Registry {
	clk := &fakeClock{}
	r := NewRegistry(label, clk.fn())
	r.Counter("cache.hits").Add(10)
	r.Gauge("mem.frames").Set(42)
	r.Histogram("syscall.read_ns", []int64{1000, 1000000}).Observe(1234)
	tr := r.NewTrack("scanner")
	clk.now = 1_500
	tr.Begin("syscall", "read")
	clk.now = 2_750
	tr.End()
	tr.Instant("probe", "hit")
	return r
}

// TestChromeTraceValidJSON parses the export with encoding/json and
// checks the trace_event invariants about://tracing relies on.
func TestChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Registry{buildRegistry("plat")}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	var phases []string
	var sawSpan, sawProcName bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases = append(phases, ph)
		switch ph {
		case "X":
			sawSpan = true
			if ev["ts"].(float64) != 1.5 || ev["dur"].(float64) != 1.25 {
				t.Errorf("span ts/dur = %v/%v, want 1.5/1.25 (µs)", ev["ts"], ev["dur"])
			}
			if ev["name"] != "read" || ev["cat"] != "syscall" {
				t.Errorf("span name/cat = %v/%v", ev["name"], ev["cat"])
			}
		case "M":
			if ev["name"] == "process_name" {
				sawProcName = true
				args := ev["args"].(map[string]any)
				if args["name"] != "plat" {
					t.Errorf("process_name = %v", args["name"])
				}
			}
		}
	}
	if !sawSpan || !sawProcName {
		t.Errorf("missing span or process metadata in phases %v", phases)
	}
	// The Track.Instant marker exports as an instant.
	instants := 0
	for _, ph := range phases {
		if ph == "i" {
			instants++
		}
	}
	if instants != 1 {
		t.Errorf("instant events = %d, want 1", instants)
	}
}

func TestMetricsJSONDeterministicAndParseable(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := WriteMetricsJSON(&buf, []*Registry{buildRegistry("a"), buildRegistry("b")}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("metrics JSON not byte-stable across renders")
	}
	var doc MetricsSnapshot
	if err := json.Unmarshal([]byte(a), &doc); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if len(doc.Platforms) != 2 || doc.Platforms[0].Label != "a" {
		t.Fatalf("platforms = %+v", doc.Platforms)
	}
	p := doc.Platforms[0]
	if p.Counters["cache.hits"] != 10 || p.Gauges["mem.frames"].Value != 42 {
		t.Errorf("snapshot values wrong: %+v", p)
	}
	if h := p.Histograms["syscall.read_ns"]; h.Count != 1 || h.Sum != 1234 {
		t.Errorf("histogram snapshot = %+v", h)
	}
	if p.Spans != 2 {
		t.Errorf("spans = %d, want 2 (one X + one instant)", p.Spans)
	}
}

func TestMetricsText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsText(&buf, []*Registry{buildRegistry("plat")}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== plat ==", "cache.hits", "mem.frames", "syscall.read_ns", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, out)
		}
	}
}

// TestSortRegistries shuffled input must come out label-ordered, and
// equal labels must order by content so exports stay deterministic.
func TestSortRegistries(t *testing.T) {
	clk := &fakeClock{}
	mk := func(label string, hits int64) *Registry {
		r := NewRegistry(label, clk.fn())
		r.Counter("hits").Add(hits)
		return r
	}
	a1 := mk("a", 1)
	a2 := mk("a", 2)
	b := mk("b", 0)
	regs := []*Registry{b, a2, a1}
	SortRegistries(regs)
	if regs[2] != b {
		t.Errorf("label order wrong: %v", []string{regs[0].Label(), regs[1].Label(), regs[2].Label()})
	}
	if regs[0] != a1 || regs[1] != a2 {
		t.Error("content tiebreak wrong: want hits=1 before hits=2")
	}
}

func TestMicroTS(t *testing.T) {
	cases := map[int64]string{
		0:          "0.000",
		999:        "0.999",
		1000:       "1.000",
		1234567:    "1234.567",
		5_000_0001: "50000.001",
	}
	for ns, want := range cases {
		if got := microTS(ns); got != want {
			t.Errorf("microTS(%d) = %q, want %q", ns, got, want)
		}
	}
}
