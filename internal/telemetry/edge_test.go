package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestEmptyRegistryExports exercises every exporter on a registry with
// no metrics or spans: all outputs must stay valid (and the
// metrics JSON must omit the empty sections entirely).
func TestEmptyRegistryExports(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry("empty", clk.fn())

	var mbuf bytes.Buffer
	if err := WriteMetricsJSON(&mbuf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	var doc MetricsSnapshot
	if err := json.Unmarshal(mbuf.Bytes(), &doc); err != nil {
		t.Fatalf("empty metrics not valid JSON: %v\n%s", err, mbuf.String())
	}
	p := doc.Platforms[0]
	if p.Counters != nil || p.Gauges != nil || p.Histograms != nil || p.Spans != 0 {
		t.Errorf("empty registry snapshot not empty: %+v", p)
	}
	if bytes.Contains(mbuf.Bytes(), []byte(`"counters"`)) {
		t.Error("empty counters section not omitted")
	}

	var tbuf bytes.Buffer
	if err := WriteChromeTrace(&tbuf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbuf.Bytes(), &trace); err != nil {
		t.Fatalf("empty trace not valid JSON: %v\n%s", err, tbuf.String())
	}
	for _, ev := range trace.TraceEvents {
		if ev["ph"] != "M" {
			t.Errorf("empty registry emitted a non-metadata event: %v", ev)
		}
	}

	var xbuf bytes.Buffer
	if err := WriteMetricsText(&xbuf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	if want := "== empty ==\n"; xbuf.String() != want {
		t.Errorf("empty text snapshot = %q, want %q", xbuf.String(), want)
	}
}

// TestHistogramOverflowCounted: a value beyond the last bucket bound
// must land in the implicit overflow bucket — counted, not dropped —
// and flow through to the export.
func TestHistogramOverflowCounted(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry("p", clk.fn())
	h := r.Histogram("lat", []int64{10, 100})
	h.Observe(5)       // first bucket
	h.Observe(1e9)     // far beyond the last bound
	h.Observe(1e9 + 1) // and again
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3 (overflow observations dropped?)", h.Count())
	}
	if h.Sum() != 5+2e9+1 {
		t.Errorf("sum = %d: overflow values not summed", h.Sum())
	}
	if h.Max() != 1e9+1 {
		t.Errorf("max = %d, want %d", h.Max(), int64(1e9+1))
	}

	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	var doc MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	hs := doc.Platforms[0].Histograms["lat"]
	if len(hs.Buckets) != len(hs.Bounds)+1 {
		t.Fatalf("buckets = %d, want bounds+1 = %d", len(hs.Buckets), len(hs.Bounds)+1)
	}
	if over := hs.Buckets[len(hs.Buckets)-1]; over != 2 {
		t.Errorf("overflow bucket = %d, want 2", over)
	}
	if hs.Buckets[0] != 1 {
		t.Errorf("first bucket = %d, want 1", hs.Buckets[0])
	}
}

// TestSpanClosedTwice: an extra End on a track whose spans are all
// closed must be a no-op — no panic, no phantom span, and the next
// Begin/End pair still records correctly.
func TestSpanClosedTwice(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry("p", clk.fn())
	tr := r.NewTrack("t")
	tr.Begin("c", "work")
	clk.now = 10
	tr.End()
	tr.End() // double close: must not record or panic
	if r.SpanCount() != 1 {
		t.Fatalf("spans = %d after double End, want 1", r.SpanCount())
	}
	clk.now = 20
	tr.Begin("c", "after")
	clk.now = 25
	tr.End()
	if r.SpanCount() != 2 {
		t.Fatalf("spans = %d, want 2", r.SpanCount())
	}
	s := r.spans[1]
	if s.name != "after" || s.start != 20 || s.dur != 5 || s.parent != 0 {
		t.Errorf("span after double End recorded wrong: %+v", s)
	}
	// And on a nil track every call is safe.
	var nilTrack *Track
	nilTrack.Begin("c", "x")
	nilTrack.End()
	nilTrack.End()
	nilTrack.Instant("c", "y")
}
