package telemetry

import (
	"testing"
)

// fakeClock is a settable virtual clock for tests.
type fakeClock struct{ now int64 }

func (f *fakeClock) fn() Clock { return func() int64 { return f.now } }

func TestCounterGaugeHistogram(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry("test", clk.fn())

	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("Counter not idempotent by name")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	g.Add(2)
	if g.Value() != 6 || g.Max() != 7 {
		t.Errorf("gauge = %d max %d, want 6 max 7", g.Value(), g.Max())
	}

	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 250, 9999} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5+10+11+250+9999 {
		t.Errorf("hist count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Min() != 5 || h.Max() != 9999 {
		t.Errorf("hist min=%d max=%d", h.Min(), h.Max())
	}
	want := []int64{2, 1, 1, 1} // (..10] (10..100] (100..1000] overflow
	for i, w := range want {
		if h.counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, h.counts[i], w, h.counts)
		}
	}
}

// The disabled path: every handle off a nil registry must be a usable
// no-op. A panic here would mean instrumented code needs enabled-checks.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.SetLabel("x")
	if r.Label() != "" || r.Now() != 0 {
		t.Error("nil registry not inert")
	}
	c := r.Counter("c")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("g")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 || g.Max() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("h", LatencyBuckets)
	h.Observe(42)
	if h.Count() != 0 {
		t.Error("nil histogram accumulated")
	}
	tr := r.NewTrack("p")
	tr.Begin("cat", "name")
	tr.Instant("cat", "name")
	tr.End()
	tr.End() // extra End must not panic
	if r.SpanCount() != 0 || r.SpanDrops() != 0 {
		t.Error("nil registry recorded spans")
	}
}

func TestTrackNestingAndTimestamps(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry("test", clk.fn())
	tr := r.NewTrack("proc")

	clk.now = 100
	tr.Begin("syscall", "read")
	clk.now = 150
	tr.Begin("disk", "read")
	clk.now = 400
	tr.End() // disk
	clk.now = 500
	tr.End() // syscall
	tr.End() // unmatched: no-op

	if len(r.spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(r.spans))
	}
	// Inner span completes (and records) first.
	if s := r.spans[0]; s.name != "read" || s.cat != "disk" || s.start != 150 || s.dur != 250 {
		t.Errorf("inner span = %+v", s)
	}
	if s := r.spans[1]; s.cat != "syscall" || s.start != 100 || s.dur != 400 {
		t.Errorf("outer span = %+v", s)
	}
}

func TestSpanCap(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry("test", clk.fn())
	r.SetMaxSpans(3)
	tr := r.NewTrack("p")
	for i := 0; i < 5; i++ {
		tr.Begin("c", "s")
		tr.End()
	}
	if r.SpanCount() != 3 || r.SpanDrops() != 2 {
		t.Errorf("spans=%d drops=%d, want 3/2", r.SpanCount(), r.SpanDrops())
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry("test", clk.fn())
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	r.Histogram("bad", []int64{10, 10})
}

// TestHistogramReRegisterMismatchPanics: re-registering a histogram under
// the same name must either return the original (identical bounds) or
// panic (different bounds) — silently handing back a handle with the
// wrong bucket layout would corrupt the metric.
func TestHistogramReRegisterMismatchPanics(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry("test", clk.fn())
	h := r.Histogram("lat", []int64{10, 100, 1000})
	if again := r.Histogram("lat", []int64{10, 100, 1000}); again != h {
		t.Fatal("identical re-registration did not return the original histogram")
	}
	cases := [][]int64{
		{10, 100},              // fewer bounds
		{10, 100, 1000, 10000}, // extra bound
		{10, 100, 999},         // same length, different element
	}
	for _, bounds := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-registration with bounds %v did not panic", bounds)
				}
			}()
			r.Histogram("lat", bounds)
		}()
	}
}
