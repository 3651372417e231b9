package telemetry

// span is one completed begin/end region, recorded when End pops it.
// id/parent chain spans into stacks for the profiler: parent is the id
// of the span that was open (innermost) on the same track at Begin, 0
// at top level. A parent can be missing from the log (still open at
// export, or dropped over the span cap after its child was kept); the
// profiler treats such orphans as roots.
type span struct {
	tid        int32
	id, parent int64
	start, dur int64
	req        int64 // request id, 0 when not request-scoped
	cat, name  string
}

// Track is one span timeline — in this repository, one simulated
// process. Spans on a track nest strictly (Begin pushes, End pops), which
// matches the call structure of instrumented code: a syscall span
// encloses the disk-op span its I/O produced. All methods are nil-safe.
type Track struct {
	reg  *Registry
	tid  int32
	name string
	open []openSpan
	req  RequestSpan // reused across requests; see request.go
}

type openSpan struct {
	cat, name string
	id        int64
	start     int64
	req       int64 // active request id at Begin, 0 otherwise
}

// NewTrack creates a span timeline named name (a process name). Nil
// registry returns a nil track whose methods are no-ops.
func (r *Registry) NewTrack(name string) *Track {
	if r == nil {
		return nil
	}
	t := &Track{reg: r, tid: int32(len(r.tracks) + 1), name: name}
	r.tracks = append(r.tracks, t)
	return t
}

// Begin opens a span. Every Begin must be paired with an End on the same
// track; spans left open are dropped at export.
func (t *Track) Begin(cat, name string) {
	if t == nil {
		return
	}
	t.reg.nextSpanID++
	var req int64
	if t.req.active {
		req = t.req.id
	}
	t.open = append(t.open, openSpan{
		cat: cat, name: name, id: t.reg.nextSpanID, start: t.reg.clock(),
		req: req,
	})
}

// End closes the innermost open span. End on an empty track is a no-op
// (robustness over panics in instrumentation code).
func (t *Track) End() {
	if t == nil || len(t.open) == 0 {
		return
	}
	os := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	var parent int64
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1].id
	}
	dur := t.reg.clock() - os.start
	if os.req != 0 && t.req.active && os.req == t.req.id {
		t.accumulate(os, dur)
	}
	t.reg.addSpan(span{
		tid:    t.tid,
		id:     os.id,
		parent: parent,
		start:  os.start,
		dur:    dur,
		req:    os.req,
		cat:    os.cat,
		name:   os.name,
	})
}

// Instant records a zero-duration marker on the track.
func (t *Track) Instant(cat, name string) {
	if t == nil {
		return
	}
	var parent int64
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1].id
	}
	t.reg.nextSpanID++
	var req int64
	if t.req.active {
		req = t.req.id
	}
	now := t.reg.clock()
	t.reg.addSpan(span{
		tid: t.tid, id: t.reg.nextSpanID, parent: parent,
		start: now, dur: -1, req: req, cat: cat, name: name,
	})
}

func (r *Registry) addSpan(s span) {
	if len(r.spans) >= r.maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// SpanCount returns recorded (kept) spans (0 for nil).
func (r *Registry) SpanCount() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// SpanDrops returns spans discarded over the MaxSpans bound.
func (r *Registry) SpanDrops() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}
