// Package fccd implements the File-Cache Content Detector (Section 4.1):
// a gray-box ICL that infers which parts of which files are in the OS
// file cache by timing one-byte read probes, and returns access plans
// ordered so that cached data is read first.
//
// Key design points taken directly from the paper:
//
//   - Probes are single-byte reads at a RANDOM offset within each
//     prediction unit, so that a concurrent or earlier prober cannot
//     poison a later probe pass (Section 4.1.2, "probe a random byte").
//   - No in-cache/on-disk threshold is needed: prediction units are
//     SORTED by probe time, which also generalizes to multi-level
//     storage ("the closest items are accessed first").
//   - Probes are sparse — one per prediction unit (default 5 MB) — to
//     bound both their cost and their Heisenberg effect (a probe miss
//     drags one page into the cache and may evict another).
//   - Files smaller than one prediction unit are probed exactly once;
//     files smaller than one page are NOT probed at all and are reported
//     with a fake "high" time, because probing them would pull the whole
//     file into the cache (Section 4.1.4).
package fccd

import (
	"fmt"

	"graybox/internal/audit"
	"graybox/internal/core/probe"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/telemetry"
)

// Default units from the paper (Section 4.1.2).
const (
	DefaultAccessUnit     = 20 << 20 // 20 MB delivers near-peak disk bandwidth
	DefaultPredictionUnit = 5 << 20  // 5 MB: a few probes per access unit
)

// FakeSmallFileTime is the probe time reported for files too small to
// probe safely: effectively "assume on disk".
const FakeSmallFileTime = sim.Time(1) * sim.Second

// Config tunes the detector.
type Config struct {
	// AccessUnit is the granularity of the (offset, length) plan the
	// detector returns; large units amortize seeks when the plan is
	// executed. Zero selects DefaultAccessUnit (or the microbenchmarked
	// value if the caller passes one in).
	AccessUnit int64
	// PredictionUnit is the granularity of probing. Zero selects
	// DefaultPredictionUnit. Must be <= AccessUnit.
	PredictionUnit int64
	// Boundary, when non-zero, forces segment offsets and lengths to be
	// multiples of it so that application records never straddle two
	// segments (the sort's 100-byte records, Section 4.1.3).
	Boundary int64
	// Seed makes probe-offset randomness reproducible.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.AccessUnit == 0 {
		c.AccessUnit = DefaultAccessUnit
	}
	if c.PredictionUnit == 0 {
		c.PredictionUnit = DefaultPredictionUnit
	}
	if c.PredictionUnit > c.AccessUnit {
		c.PredictionUnit = c.AccessUnit
	}
	if c.Boundary < 0 {
		panic("fccd: negative boundary")
	}
	return c
}

// Segment is one entry of an access plan: a byte range of the file and
// the total probe time that ranked it.
type Segment struct {
	Off, Len  int64
	ProbeTime sim.Time
}

// FileProbe ranks one file for cross-file ordering.
type FileProbe struct {
	Path      string
	Size      int64
	ProbeTime sim.Time
}

// Detector is the FCCD ICL bound to one process.
type Detector struct {
	os  *simos.OS
	cfg Config
	rng *sim.RNG

	// meter is the shared probe layer: it times every probe syscall and
	// accumulates the cost audit hooks bill by delta.
	meter *probe.Meter

	// Telemetry handles (nil-safe no-ops when the system has none):
	// fast/slow classification outcomes, the bimodal-split margin in log
	// space (milli-units; 0 = unimodal), and the split confidence.
	telFast   *telemetry.Counter
	telSlow   *telemetry.Counter
	telMargin *telemetry.Gauge
	telConf   *telemetry.Gauge
}

// New creates a detector.
func New(os *simos.OS, cfg Config) *Detector {
	cfg = cfg.withDefaults()
	r := os.Telemetry()
	return &Detector{
		os: os, cfg: cfg, rng: sim.NewRNG(cfg.Seed),
		meter:     probe.NewMeter(os, r.Histogram("fccd.probe_ns", telemetry.LatencyBuckets)),
		telFast:   r.Counter("fccd.fast_units"),
		telSlow:   r.Counter("fccd.slow_units"),
		telMargin: r.Gauge("fccd.sort_margin_milli"),
		telConf:   r.Gauge("fccd.confidence_milli"),
	}
}

// Probes returns how many probe syscalls the detector has issued (for
// overhead reporting).
func (d *Detector) Probes() int64 { return d.meter.Probes() }

// ProbeCost returns the detector's accumulated probe cost.
func (d *Detector) ProbeCost() probe.Cost { return d.meter.Cost() }

// AccessUnit returns the configured access unit in bytes.
func (d *Detector) AccessUnit() int64 { return d.cfg.AccessUnit }

// probeRange times one random-byte probe in [off, off+length).
func (d *Detector) probeRange(fd *simos.Fd, off, length int64) (sim.Time, error) {
	target := off + d.rng.Int63n(length)
	start := d.meter.Begin()
	if err := fd.ReadByteAt(target); err != nil {
		return 0, err
	}
	return d.meter.End(start), nil
}

// recordSplit publishes one bimodal-split outcome: how many units landed
// in each class, the cluster separation that justified the split, and
// the per-inference confidence derived from it.
func (d *Detector) recordSplit(sp probe.Split) {
	d.telFast.Add(int64(len(sp.Fast)))
	d.telSlow.Add(int64(len(sp.Slow)))
	d.telMargin.Set(int64(sp.Margin * 1000))
	d.telConf.Set(int64(sp.Confidence() * 1000))
}

// ProbeFile probes a file and returns its access plan: access-unit-sized
// segments sorted by increasing total probe time (cached portions
// first). The segmentation respects Config.Boundary.
func (d *Detector) ProbeFile(path string) ([]Segment, error) {
	fd, err := d.os.Open(path)
	if err != nil {
		return nil, err
	}
	return d.probeSegments(fd, d.segmentFile(fd.Size()))
}

// ProbeFd is ProbeFile for an already-open descriptor.
func (d *Detector) ProbeFd(fd *simos.Fd) ([]Segment, error) {
	return d.probeSegments(fd, d.segmentFile(fd.Size()))
}

// ProbeSegments ranks caller-supplied (offset, length) pairs ("more
// advanced applications can specify the exact manner in which they want
// the data returned").
func (d *Detector) ProbeSegments(path string, segs []Segment) ([]Segment, error) {
	fd, err := d.os.Open(path)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		if s.Off < 0 || s.Len <= 0 || s.Off+s.Len > fd.Size() {
			return nil, fmt.Errorf("fccd: segment [%d,%d) outside file %q", s.Off, s.Off+s.Len, path)
		}
	}
	return d.probeSegments(fd, segs)
}

// segmentFile cuts [0, size) into access units aligned to Boundary.
func (d *Detector) segmentFile(size int64) []Segment {
	var segs []Segment
	au := d.cfg.AccessUnit
	if d.cfg.Boundary > 1 {
		au -= au % d.cfg.Boundary
		if au <= 0 {
			au = d.cfg.Boundary
		}
	}
	for off := int64(0); off < size; off += au {
		l := au
		if off+l > size {
			l = size - off
		}
		segs = append(segs, Segment{Off: off, Len: l})
	}
	return segs
}

// probeSegments measures each segment with one probe per prediction unit
// and sorts by total probe time. Ties keep file order, so an entirely
// cold file is still read sequentially.
func (d *Detector) probeSegments(fd *simos.Fd, segs []Segment) ([]Segment, error) {
	d.os.Proc().Track().Begin("icl", "fccd probe segments")
	defer d.os.Proc().Track().End()
	cost0 := d.meter.Cost()
	pageSize := int64(d.os.PageSize())
	for i := range segs {
		seg := &segs[i]
		if seg.Len < pageSize {
			// Too small to probe without caching the whole thing.
			seg.ProbeTime = FakeSmallFileTime
			continue
		}
		var total sim.Time
		pu := d.cfg.PredictionUnit
		for off := seg.Off; off < seg.Off+seg.Len; off += pu {
			l := pu
			if off+l > seg.Off+seg.Len {
				l = seg.Off + seg.Len - off
			}
			if l < pageSize {
				continue // tail sliver already covered by the previous probe
			}
			t, err := d.probeRange(fd, off, l)
			if err != nil {
				return nil, err
			}
			total += t
		}
		seg.ProbeTime = total
	}
	// Order the plan. Probe times are bimodal (memory vs disk), so
	// cluster them in log space and order each class for its medium:
	//
	//   - cached segments DESCENDING by offset: under LRU-like
	//     replacement the likely eviction victims are the oldest-cached
	//     (lowest-offset) pages, so consuming the newest-cached data
	//     first makes the eviction front and the reading front converge
	//     instead of chasing each other — a probe-hole at the LRU end
	//     then costs one access unit of re-reads rather than cascading
	//     through the whole cached region;
	//   - cold segments ASCENDING by offset: sequential disk reads.
	//
	// A single cluster means uniformly warm or uniformly cold; either
	// way ascending file order is safe (no mixed state, no cascade).
	sp := probe.SplitBimodal(times(segs), probe.MinLogSeparation)
	d.recordSplit(sp)
	if aud := d.os.Audit(); aud != nil {
		preds := make([]audit.RangePrediction, len(segs))
		for i, s := range segs {
			preds[i] = audit.RangePrediction{Off: s.Off, Len: s.Len}
		}
		for _, i := range sp.Fast {
			preds[i].PredictedCached = true
		}
		delta := d.meter.Cost().Sub(cost0)
		aud.FCCDRanges(fd.Ino(), fd.Size(), preds, delta.Probes, delta.NS)
	}
	ordered := make([]Segment, 0, len(segs))
	for i := len(sp.Fast) - 1; i >= 0; i-- { // descending offsets
		ordered = append(ordered, segs[sp.Fast[i]])
	}
	for _, i := range sp.Slow { // ascending offsets
		ordered = append(ordered, segs[i])
	}
	copy(segs, ordered)
	return segs, nil
}

// times extracts probe times from a plan.
func times(segs []Segment) []float64 {
	ts := make([]float64, len(segs))
	for i, s := range segs {
		ts[i] = float64(s.ProbeTime)
	}
	return ts
}

// OrderFiles probes each file (once per prediction unit; small files get
// the fake high time) and returns the files sorted fastest-first — the
// `gbp` ordering for "grep foo `gbp *`".
func (d *Detector) OrderFiles(paths []string) ([]FileProbe, error) {
	d.os.Proc().Track().Begin("icl", "fccd order files")
	defer d.os.Proc().Track().End()
	aud := d.os.Audit()
	cost0 := d.meter.Cost()
	var inos []int64
	probes := make([]FileProbe, 0, len(paths))
	pageSize := int64(d.os.PageSize())
	for _, path := range paths {
		fd, err := d.os.Open(path)
		if err != nil {
			return nil, err
		}
		if aud != nil {
			inos = append(inos, fd.Ino())
		}
		fp := FileProbe{Path: path, Size: fd.Size()}
		if fd.Size() < pageSize {
			fp.ProbeTime = FakeSmallFileTime
		} else {
			var total sim.Time
			for off := int64(0); off < fd.Size(); off += d.cfg.PredictionUnit {
				l := d.cfg.PredictionUnit
				if off+l > fd.Size() {
					l = fd.Size() - off
				}
				if l < pageSize && off > 0 {
					continue
				}
				t, err := d.probeRange(fd, off, l)
				if err != nil {
					return nil, err
				}
				total += t
			}
			fp.ProbeTime = total
		}
		probes = append(probes, fp)
	}
	// Same rationale as probeSegments: cached files are visited in
	// reverse listing order (under repeated runs the latest-listed is
	// the most recently cached and least at risk of eviction, so the
	// reading front retreats toward the LRU end instead of being chased
	// by it), cold files in listing order (the user's order typically
	// matches creation, hence layout).
	ts := make([]float64, len(probes))
	for i, pr := range probes {
		ts[i] = float64(pr.ProbeTime)
	}
	sp := probe.SplitBimodal(ts, probe.MinLogSeparation)
	d.recordSplit(sp)
	if aud != nil {
		preds := make([]audit.FilePrediction, len(probes))
		for i, pr := range probes {
			preds[i] = audit.FilePrediction{Ino: inos[i], SizeBytes: pr.Size}
		}
		for _, i := range sp.Fast {
			preds[i].PredictedCached = true
		}
		delta := d.meter.Cost().Sub(cost0)
		aud.FCCDFiles(preds, delta.Probes, delta.NS)
	}
	ordered := make([]FileProbe, 0, len(probes))
	for i := len(sp.Fast) - 1; i >= 0; i-- {
		ordered = append(ordered, probes[sp.Fast[i]])
	}
	for _, i := range sp.Slow {
		ordered = append(ordered, probes[i])
	}
	return ordered, nil
}

// CoalescePlan merges consecutive plan entries that are FORWARD
// adjacent in the file (previous end == next start), so that executing
// the plan issues fewer, larger reads. Reverse adjacency is deliberately
// NOT merged: the plan lists equally-fast cached segments in descending
// file order so the reading front retreats toward the LRU end (see
// probeSegments), and merging a descending run would flip it back into
// one big ascending read — exactly the order that lets eviction chase
// the reader. Only the ascending portions (typically the cold tail)
// benefit, and those merge safely.
func CoalescePlan(segs []Segment) []Segment {
	if len(segs) < 2 {
		return segs
	}
	out := make([]Segment, 0, len(segs))
	for _, seg := range segs {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Off+last.Len == seg.Off {
				last.Len += seg.Len
				last.ProbeTime += seg.ProbeTime
				continue
			}
		}
		out = append(out, seg)
	}
	return out
}

// Paths extracts the path list from an ordered probe slice.
func Paths(probes []FileProbe) []string {
	out := make([]string, len(probes))
	for i, p := range probes {
		out[i] = p.Path
	}
	return out
}
