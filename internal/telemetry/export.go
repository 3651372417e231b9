package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file renders registries into the two export formats:
//
//   - Chrome trace_event JSON ("JSON Array Format" with metadata events),
//     loadable in about://tracing and https://ui.perfetto.dev. Each
//     registry becomes one trace "process" (pid), each Track one thread
//     (tid); spans are complete "X" events and Track.Instant markers are
//     instant "i" events.
//   - A metrics snapshot, as canonical JSON or aligned text.
//
// Both formats are rendered with deterministic ordering and number
// formatting only (sorted metric names, fixed-precision timestamps, no
// wall-clock anywhere), so identical simulations export identical bytes.

// SortRegistries orders registries deterministically: by label, with
// ties broken by serialized metric content. Trial workers finish in
// nondeterministic wall-clock order, so the collection order of
// registries varies run to run; sorting restores byte-identical exports
// at any pool width. The content tiebreak keeps even duplicate labels
// deterministic (two identical registries compare equal, so either order
// yields the same bytes).
func SortRegistries(regs []*Registry) {
	content := make(map[*Registry][]byte, len(regs))
	contentOf := func(r *Registry) []byte {
		if b, ok := content[r]; ok {
			return b
		}
		b, err := json.Marshal(r.snapshot())
		if err != nil {
			b = []byte(r.Label()) // unreachable: snapshot is marshalable
		}
		content[r] = b
		return b
	}
	sort.SliceStable(regs, func(i, j int) bool {
		if li, lj := regs[i].Label(), regs[j].Label(); li != lj {
			return li < lj
		}
		return bytes.Compare(contentOf(regs[i]), contentOf(regs[j])) < 0
	})
}

// --- metrics snapshot ---

// GaugeSnapshot is a gauge's exported state.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistogramSnapshot is a histogram's exported state.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
}

// SketchSnapshot is a quantile sketch's exported state: headline
// quantiles rather than raw buckets — ~1888 mostly-zero buckets per
// sketch would swamp the document, and the quantile walk is already
// deterministic.
type SketchSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
	P999  int64 `json:"p999"`
}

// SLOSnapshot is an SLO tracker's exported state.
type SLOSnapshot struct {
	Threshold      int64 `json:"threshold"`
	Total          int64 `json:"total"`
	Violations     int64 `json:"violations"`
	FirstViolation int64 `json:"first_violation"` // -1 when never violated
}

// RegistrySnapshot is one registry's exported state.
type RegistrySnapshot struct {
	Label      string                       `json:"label"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Sketches   map[string]SketchSnapshot    `json:"sketches,omitempty"`
	SLOs       map[string]SLOSnapshot       `json:"slos,omitempty"`
	Spans      int                          `json:"spans"`
	SpanDrops  int64                        `json:"span_drops,omitempty"`
}

// MetricsSnapshot is the full export document of one run.
type MetricsSnapshot struct {
	Platforms []RegistrySnapshot `json:"platforms"`
}

func (r *Registry) snapshot() RegistrySnapshot {
	s := RegistrySnapshot{Label: r.Label()}
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]GaugeSnapshot, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = HistogramSnapshot{
				Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
				Bounds: h.bounds, Buckets: h.counts,
			}
		}
	}
	if len(r.sketches) > 0 {
		s.Sketches = make(map[string]SketchSnapshot, len(r.sketches))
		for name, sk := range r.sketches {
			s.Sketches[name] = SketchSnapshot{
				Count: sk.Count(), Sum: sk.Sum(), Min: sk.Min(), Max: sk.Max(),
				P50: sk.Quantile(0.50), P99: sk.Quantile(0.99), P999: sk.Quantile(0.999),
			}
		}
	}
	if len(r.slos) > 0 {
		s.SLOs = make(map[string]SLOSnapshot, len(r.slos))
		for name, sl := range r.slos {
			s.SLOs[name] = SLOSnapshot{
				Threshold: sl.Threshold(), Total: sl.Total(),
				Violations: sl.Violations(), FirstViolation: sl.FirstViolation(),
			}
		}
	}
	s.Spans = len(r.spans)
	s.SpanDrops = r.dropped
	return s
}

// Snapshot captures the exported state of a set of registries, in the
// given order.
func Snapshot(regs []*Registry) MetricsSnapshot {
	doc := MetricsSnapshot{Platforms: make([]RegistrySnapshot, 0, len(regs))}
	for _, r := range regs {
		doc.Platforms = append(doc.Platforms, r.snapshot())
	}
	return doc
}

// WriteMetricsJSON writes the snapshot of regs (in the given order) as
// indented canonical JSON. encoding/json sorts map keys, so the output
// is deterministic.
func WriteMetricsJSON(w io.Writer, regs []*Registry) error {
	data, err := json.MarshalIndent(Snapshot(regs), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteMetricsText writes the snapshot as aligned, human-readable text,
// one metric per line, deterministically ordered.
func WriteMetricsText(w io.Writer, regs []*Registry) error {
	bw := bufio.NewWriter(w)
	for _, r := range regs {
		s := r.snapshot()
		fmt.Fprintf(bw, "== %s ==\n", s.Label)
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(bw, "  counter    %-36s %d\n", name, s.Counters[name])
		}
		for _, name := range sortedKeys(s.Gauges) {
			g := s.Gauges[name]
			fmt.Fprintf(bw, "  gauge      %-36s %d (max %d)\n", name, g.Value, g.Max)
		}
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			mean := int64(0)
			if h.Count > 0 {
				mean = h.Sum / h.Count
			}
			fmt.Fprintf(bw, "  histogram  %-36s n=%d mean=%dns min=%dns max=%dns\n",
				name, h.Count, mean, h.Min, h.Max)
		}
		for _, name := range sortedKeys(s.Sketches) {
			sk := s.Sketches[name]
			fmt.Fprintf(bw, "  sketch     %-36s n=%d p50=%dns p99=%dns p999=%dns max=%dns\n",
				name, sk.Count, sk.P50, sk.P99, sk.P999, sk.Max)
		}
		for _, name := range sortedKeys(s.SLOs) {
			sl := s.SLOs[name]
			fmt.Fprintf(bw, "  slo        %-36s threshold=%dns total=%d violations=%d first=%dns\n",
				name, sl.Threshold, sl.Total, sl.Violations, sl.FirstViolation)
		}
		if s.Spans > 0 || s.SpanDrops > 0 {
			fmt.Fprintf(bw, "  spans      %d recorded, %d dropped\n", s.Spans, s.SpanDrops)
		}
	}
	return bw.Flush()
}

// --- Chrome trace_event export ---

// WriteChromeTrace writes regs (in the given order) as a Chrome
// trace_event JSON document. Load it in about://tracing (Chrome) or
// https://ui.perfetto.dev. Registries become processes in slice order
// (pid 1..n); their label is the process name.
func WriteChromeTrace(w io.Writer, regs []*Registry) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(line)
	}
	for i, r := range regs {
		if r == nil {
			continue
		}
		pid := i + 1
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			pid, jsonString(r.Label())))
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}`,
			pid, pid))
		for _, t := range r.tracks {
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				pid, t.tid, jsonString(t.name)))
		}
		for _, s := range r.spans {
			reqArgs := ""
			if s.req != 0 {
				reqArgs = `,"args":{"req":` + strconv.FormatInt(s.req, 10) + `}`
			}
			if s.dur < 0 { // Track.Instant marker
				emit(fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","cat":%s,"name":%s%s}`,
					pid, s.tid, microTS(s.start), jsonString(s.cat), jsonString(s.name), reqArgs))
				continue
			}
			emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"cat":%s,"name":%s%s}`,
				pid, s.tid, microTS(s.start), microTS(s.dur), jsonString(s.cat), jsonString(s.name), reqArgs))
		}
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// microTS renders virtual nanoseconds as the trace format's microsecond
// timestamps with fixed precision (determinism requires one canonical
// rendering per value).
func microTS(ns int64) string {
	micros := ns / 1000
	frac := ns % 1000
	return strconv.FormatInt(micros, 10) + "." + fmt.Sprintf("%03d", frac)
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""` // unreachable for strings
	}
	return string(b)
}
