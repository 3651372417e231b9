package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// tracer records host-time spans around the benchmark's own calls into
// the simulator's layers; nothing inside the simulator is instrumented.
// A nil *tracer records nothing, so an untraced run pays one nil check
// per call site and never reads the clock for a span.
//
// Spans are recorded from whichever goroutine is running the simulation
// at the time (the trial loop or a simulated process). The engine runs
// exactly one of them at once and hands control over channels, so the
// recorder needs no lock.
type tracer struct {
	origin time.Time
	trial  int
	spans  []span
	open   []int
}

// span is one timed call. Start and End are host time since the run
// began; Units is how many pages, calls or events the call covered, so
// per-unit costs can be derived.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int // index into tracer.spans, -1 at top level
	Trial      int
	Units      int64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), trial: -1} }

// now returns the host time since the run began (0 on a nil tracer).
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// begin opens a span that later spans nest under until end closes it.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.parent(), Trial: t.trial})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span, crediting it with units.
func (t *tracer) end(units int64) {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
	t.spans[i].Units = units
}

// leaf records a completed span that started at start (from now) and
// ends now, under the innermost open span.
func (t *tracer) leaf(name string, start time.Duration, units int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: t.now(), Parent: t.parent(), Trial: t.trial, Units: units})
}

func (t *tracer) parent() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

// spanStat aggregates every span of one name.
type spanStat struct {
	count int64
	total time.Duration // summed span durations
	self  time.Duration // total minus the time covered by child spans
	units int64
}

// stats aggregates spans by name. A span's self time is its duration
// minus its direct children's durations.
func (t *tracer) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	if t == nil {
		return out
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.self += d - child[i]
		st.units += s.Units
	}
	return out
}

// meanMS is the mean span duration of name in milliseconds (0 when no
// span of that name was recorded).
func meanMS(st map[string]*spanStat, name string) float64 {
	s := st[name]
	if s == nil || s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e6
}

// perUnitNS is the summed duration of the named spans in nanoseconds
// divided by the units they covered (0 when none were recorded).
func perUnitNS(st map[string]*spanStat, name string) float64 {
	s := st[name]
	if s == nil || s.units == 0 {
		return 0
	}
	return float64(s.total) / float64(s.units)
}

// writeChromeTrace writes the spans as Chrome trace_event JSON, loadable
// in about://tracing or ui.perfetto.dev.
func (t *tracer) writeChromeTrace(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = t.spans[s.Parent].Name
		}
		events = append(events, event{
			Name: s.Name, Cat: "host", Ph: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"trial": s.Trial, "parent": parent, "units": s.Units},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeSelfTimes prints one line per span name, largest self time first.
func writeSelfTimes(w io.Writer, st map[string]*spanStat) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if st[names[i]].self != st[names[j]].self {
			return st[names[i]].self > st[names[j]].self
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f\n", n, s.count, float64(s.total)/1e6, float64(s.self)/1e6)
	}
}
