// Package telemetry is the virtual-time observability subsystem: metrics
// (counters, gauges, fixed-bucket histograms) and spans (begin/end regions
// nested per track), all registered in a per-platform Registry and exportable as a Chrome trace_event JSON file
// or a deterministic metrics snapshot.
//
// Design constraints, in order:
//
//   - Timestamps are virtual. The Registry reads a Clock supplied by the
//     simulation engine, so identical seeds produce byte-identical
//     exports regardless of wall-clock scheduling or pool width.
//   - Disabled telemetry is free. Every method is nil-safe: a nil
//     *Registry hands out nil *Counter/*Gauge/*Histogram/*Track handles
//     whose methods are no-ops, so instrumented hot loops pay one nil
//     check and zero allocations when telemetry is off.
//   - The enabled hot path avoids allocation where practical: metrics
//     update in place, span stacks and the span log reuse their backing
//     arrays, and nothing is formatted until export time.
//
// The package deliberately does not import the simulator: clocks are
// plain func() int64 (virtual nanoseconds), which keeps the dependency
// arrow pointing from the simulator to its instrumentation.
package telemetry

import "sort"

// A Clock reports the current virtual time in nanoseconds.
type Clock func() int64

// DefaultMaxSpans bounds the per-registry span log (first-N kept, the
// rest counted as drops) so a runaway instrumented loop cannot exhaust
// memory. Keeping the prefix rather than a suffix window makes the
// exported file independent of when the export happens.
const DefaultMaxSpans = 1 << 20

// Registry holds one platform's metrics and trace streams. The zero of
// *Registry (nil) is the disabled state: every method is a no-op and
// every handle it returns is nil.
type Registry struct {
	clock Clock
	label string

	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sketches map[string]*Sketch
	slos     map[string]*SLO

	tracks     []*Track
	spans      []span
	maxSpans   int
	dropped    int64
	nextSpanID int64
	nextReqID  int64
}

// NewRegistry creates a registry reading virtual time from clock.
func NewRegistry(label string, clock Clock) *Registry {
	if clock == nil {
		panic("telemetry: nil clock")
	}
	return &Registry{
		clock:    clock,
		label:    label,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		maxSpans: DefaultMaxSpans,
	}
}

// Label returns the registry's platform label ("" for nil).
func (r *Registry) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// SetLabel renames the registry (the experiment harness prefixes labels
// with the experiment id before export). No-op on nil.
func (r *Registry) SetLabel(label string) {
	if r != nil {
		r.label = label
	}
}

// SetMaxSpans adjusts the span-log bound (<= 0 restores the default).
func (r *Registry) SetMaxSpans(n int) {
	if r == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	r.maxSpans = n
}

// Now returns the registry's current virtual time (0 for nil).
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Counter returns (creating if needed) the named counter. Nil registry
// returns a nil handle whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named fixed-bucket
// histogram. bounds are inclusive upper bounds in ascending order; an
// implicit overflow bucket catches everything above the last bound.
// Re-registering an existing histogram with different bounds panics —
// two call sites feeding one histogram through different geometries
// would corrupt every percentile silently, so it fails the same way an
// ascending-order violation does.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic("telemetry: histogram bounds not ascending: " + name)
			}
		}
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
		return h
	}
	if len(h.bounds) != len(bounds) {
		panic("telemetry: histogram re-registered with different bounds: " + name)
	}
	for i, b := range bounds {
		if h.bounds[i] != b {
			panic("telemetry: histogram re-registered with different bounds: " + name)
		}
	}
	return h
}

// Sketch returns (creating if needed) the named quantile sketch. All
// sketches share one fixed geometry (see sketch.go), so there is no
// bounds argument and cross-registry merges are always exact. Nil
// registry returns a nil handle whose methods are no-ops.
func (r *Registry) Sketch(name string) *Sketch {
	if r == nil {
		return nil
	}
	if r.sketches == nil {
		r.sketches = make(map[string]*Sketch)
	}
	s := r.sketches[name]
	if s == nil {
		s = NewSketch()
		r.sketches[name] = s
	}
	return s
}

// Counter is a monotonically-increasing count. All methods are nil-safe.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level that also remembers its high-water
// mark. All methods are nil-safe.
type Gauge struct{ v, max int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v += delta
	if g.v > g.max {
		g.max = g.v
	}
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (0 for nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram is a fixed-bucket distribution (typically of virtual-time
// latencies in nanoseconds). All methods are nil-safe.
type Histogram struct {
	bounds     []int64 // inclusive upper bounds, ascending
	counts     []int64 // len(bounds)+1; last is overflow
	count, sum int64
	min, max   int64
}

// LatencyBuckets is the standard 1-2-5 series from 1 µs to 10 s, the
// range simulated operations span (resident touch to worst-case scan).
// Callers must not mutate it.
var LatencyBuckets = []int64{
	1e3, 2e3, 5e3, // 1, 2, 5 µs
	1e4, 2e4, 5e4, // 10 .. 50 µs
	1e5, 2e5, 5e5, // 100 .. 500 µs
	1e6, 2e6, 5e6, // 1 .. 5 ms
	1e7, 2e7, 5e7, // 10 .. 50 ms
	1e8, 2e8, 5e8, // 100 .. 500 ms
	1e9, 2e9, 5e9, // 1 .. 5 s
	1e10, // 10 s
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	// Binary search over the fixed bounds: counts[i] covers
	// (bounds[i-1], bounds[i]].
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation (0 when empty or nil).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty or nil).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// sortedKeys returns m's keys in ascending order (export determinism).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
