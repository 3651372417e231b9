// Package disk models a circa-2001 SCSI disk (the paper's testbed used
// IBM 9LZX drives): a seek curve over cylinder distance, deterministic
// rotational positioning derived from virtual time, and per-track transfer
// bandwidth. Requests are serviced one at a time from one queue, in the
// order the disk's scheduler picks: arrival order (FCFS, the default),
// shortest seek first (SSTF) or elevator sweeps (LOOK).
//
// The disk is addressed in fixed-size blocks (the file system page size).
// Sequential block runs naturally achieve near-full bandwidth because the
// head ends a transfer exactly where the next block begins, so neither a
// seek nor rotational latency is charged.
package disk

import (
	"fmt"
	"math"

	"graybox/internal/sim"
	"graybox/internal/telemetry"
)

// Params describes the drive geometry and timing. All fields must be
// positive.
type Params struct {
	BlockSize      int      // bytes per block (file system page)
	BlocksPerTrack int      // blocks on one track
	TracksPerCyl   int      // surfaces (heads)
	Cylinders      int      // seek range
	RPM            int      // spindle speed
	MinSeek        sim.Time // track-to-track seek
	MaxSeek        sim.Time // full-stroke seek
	Overhead       sim.Time // controller/command overhead per request
}

// DefaultParams approximates an IBM 9LZX-class drive with 4 KB blocks:
// 10000 RPM (6 ms rotation), ~20 MB/s media rate, 0.8-10 ms seeks.
func DefaultParams() Params {
	return Params{
		BlockSize:      4096,
		BlocksPerTrack: 30, // 120 KB/track -> 20 MB/s at 10k RPM
		TracksPerCyl:   10,
		Cylinders:      8714,
		RPM:            10000,
		MinSeek:        800 * sim.Microsecond,
		MaxSeek:        10 * sim.Millisecond,
		Overhead:       50 * sim.Microsecond,
	}
}

// FastParams approximates a 15k-RPM fast-tier drive (Ultrastar-class):
// same 4 KB blocks as DefaultParams — mixed-tier machines share one
// cache page size — but twice the track density, 4 ms rotation, and
// sub-half-millisecond track-to-track seeks. Paired with DefaultParams
// it forms the fast/slow tier pair the stash overlay manages.
func FastParams() Params {
	return Params{
		BlockSize:      4096,
		BlocksPerTrack: 60, // 240 KB/track -> 60 MB/s at 15k RPM
		TracksPerCyl:   8,
		Cylinders:      9137,
		RPM:            15000,
		MinSeek:        400 * sim.Microsecond,
		MaxSeek:        5 * sim.Millisecond,
		Overhead:       30 * sim.Microsecond,
	}
}

func (p Params) validate() error {
	switch {
	case p.BlockSize <= 0, p.BlocksPerTrack <= 0, p.TracksPerCyl <= 0,
		p.Cylinders <= 0, p.RPM <= 0:
		return fmt.Errorf("disk: non-positive geometry: %+v", p)
	case p.MinSeek < 0 || p.MaxSeek < p.MinSeek:
		return fmt.Errorf("disk: bad seek range %v..%v", p.MinSeek, p.MaxSeek)
	}
	return nil
}

// Blocks returns the total number of addressable blocks.
func (p Params) Blocks() int64 {
	return int64(p.BlocksPerTrack) * int64(p.TracksPerCyl) * int64(p.Cylinders)
}

// RotationPeriod returns the time for one revolution.
func (p Params) RotationPeriod() sim.Time {
	return sim.Time(int64(60) * int64(sim.Second) / int64(p.RPM))
}

// Stats aggregates per-disk counters for experiment reporting.
type Stats struct {
	Reads, Writes           int64
	BlocksRead, BlocksWrote int64
	SeekTime, RotTime       sim.Time
	TransferTime, QueueTime sim.Time
}

// Disk is one simulated drive attached to an engine.
type Disk struct {
	p       Params
	e       *sim.Engine
	headCyl int
	stats   Stats

	// Track-buffer state: a request that continues exactly where the
	// previous transfer ended, soon after it ended, is served from the
	// drive's segment buffer with no rotational delay.
	lastEnd     int64
	lastEndTime sim.Time

	// sched is the request queue and its policy (see sched.go).
	sched schedState

	// tel holds telemetry handles; nil until Instrument is called, and
	// every update is guarded by that one nil check.
	tel *diskTel
}

// diskTel is the disk's telemetry handle set: request and block
// counters, the service-time breakdown the simulator computes anyway
// (seek/rotation/transfer), queue depth, and per-request spans.
type diskTel struct {
	reads, writes       *telemetry.Counter
	blocksRead, blocksW *telemetry.Counter
	seekNS, rotNS       *telemetry.Counter
	xferNS, queueNS     *telemetry.Counter
	queueDepth          *telemetry.Gauge
	serviceNS           *telemetry.Histogram
	spanRead, spanWrite string // precomputed span names, no per-op fmt
}

// Instrument registers the disk's metrics in r under the given name
// (e.g. "disk0", "swap"). Spans for each request appear on the calling
// process's track, enclosed by the syscall span that caused the I/O.
func (d *Disk) Instrument(r *telemetry.Registry, name string) {
	if r == nil {
		return
	}
	prefix := name + "."
	d.tel = &diskTel{
		reads:      r.Counter(prefix + "reads"),
		writes:     r.Counter(prefix + "writes"),
		blocksRead: r.Counter(prefix + "blocks_read"),
		blocksW:    r.Counter(prefix + "blocks_written"),
		seekNS:     r.Counter(prefix + "seek_ns"),
		rotNS:      r.Counter(prefix + "rotation_ns"),
		xferNS:     r.Counter(prefix + "transfer_ns"),
		queueNS:    r.Counter(prefix + "queue_ns"),
		queueDepth: r.Gauge(prefix + "queue_depth"),
		serviceNS:  r.Histogram(prefix+"service_ns", telemetry.LatencyBuckets),
		spanRead:   name + " read",
		spanWrite:  name + " write",
	}
}

// New creates a disk. It panics on invalid parameters (construction-time
// programmer error, not a runtime condition).
func New(e *sim.Engine, p Params) *Disk {
	if err := p.validate(); err != nil {
		panic(err)
	}
	return &Disk{p: p, e: e}
}

// Params returns the drive's geometry.
func (d *Disk) Params() Params { return d.p }

// Stats returns a copy of the counters.
func (d *Disk) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *Disk) ResetStats() { d.stats = Stats{} }

func (d *Disk) cylinder(block int64) int {
	return int(block / int64(d.p.BlocksPerTrack*d.p.TracksPerCyl))
}

// seekTime returns the time to move the head from cylinder a to b using
// the standard sqrt seek curve.
func (d *Disk) seekTime(from, to int) sim.Time {
	if from == to {
		return 0
	}
	dist := from - to
	if dist < 0 {
		dist = -dist
	}
	span := float64(d.p.Cylinders - 1)
	frac := math.Sqrt(float64(dist) / span)
	return d.p.MinSeek + sim.Time(float64(d.p.MaxSeek-d.p.MinSeek)*frac)
}

// angleOf returns the rotational position (fraction of a revolution) at
// which block starts.
func (d *Disk) angleOf(block int64) float64 {
	return float64(block%int64(d.p.BlocksPerTrack)) / float64(d.p.BlocksPerTrack)
}

// serviceTime computes the seek, rotation and transfer components for a
// request starting at block at time start.
func (d *Disk) serviceTime(block int64, nblocks int, start sim.Time) (seek, rot, xfer sim.Time) {
	seek = d.seekTime(d.headCyl, d.cylinder(block))
	period := d.p.RotationPeriod()
	switch {
	case block == d.lastEnd && start-d.lastEndTime < period:
		// Sequential continuation: served from the track/segment buffer
		// the drive fills as it passes over the media.
		rot = 0
	default:
		// Rotational position when the head arrives (after command
		// overhead and seek).
		arrive := start + d.p.Overhead + seek
		cur := math.Mod(float64(arrive%period)/float64(period), 1)
		target := d.angleOf(block)
		delta := target - cur
		if delta < 0 {
			delta++
		}
		rot = sim.Time(delta * float64(period))
	}
	xfer = sim.Time(float64(nblocks) / float64(d.p.BlocksPerTrack) * float64(period))
	return seek, rot, xfer
}

// Access performs a synchronous transfer of nblocks starting at block,
// blocking p for queueing plus service time. It panics on out-of-range
// requests, which indicate file system allocator bugs.
func (d *Disk) Access(p *sim.Proc, block int64, nblocks int, write bool) {
	if block < 0 || nblocks <= 0 || block+int64(nblocks) > d.p.Blocks() {
		panic(fmt.Sprintf("disk: access [%d, %d) outside [0, %d)", block, block+int64(nblocks), d.p.Blocks()))
	}
	if t := d.tel; t != nil {
		name := t.spanRead
		if write {
			name = t.spanWrite
		}
		p.Track().Begin("disk", name)
		t.queueDepth.Add(1)
	}
	enqueued := d.e.Now()
	d.acquire(p, block)
	queued := d.e.Now() - enqueued
	d.stats.QueueTime += queued
	if t := d.tel; t != nil {
		t.queueNS.Add(int64(queued))
		p.Track().QueueWait(int64(queued))
	}
	d.service(p, block, nblocks, write)
	d.release()
	if t := d.tel; t != nil {
		t.queueDepth.Add(-1)
		p.Track().End()
	}
}
