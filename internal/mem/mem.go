// Package mem models physical memory as a pool of page frames shared by
// the file cache and by process anonymous memory. When the pool runs dry,
// frames are reclaimed synchronously from registered shrinkers (direct
// reclaim, the dominant path in Linux 2.2-era kernels): the allocating
// process itself pays the eviction cost, which is precisely the "slow data
// point" signal the paper's MAC layer keys on.
package mem

import (
	"fmt"

	"graybox/internal/sim"
	"graybox/internal/telemetry"
)

// Shrinker is a frame-holding subsystem (file cache, anonymous memory)
// the pool can ask to give frames back.
//
// EvictOne must (1) pick a victim page, (2) immediately mark it
// non-resident in the owner's index so a concurrent reclaim cannot pick
// it again, (3) perform any write-back I/O (during which the calling
// process sleeps on virtual time), and (4) call Pool.ReturnFrames(1).
// It reports false when the shrinker has nothing left to give.
type Shrinker interface {
	Name() string
	// Held returns the number of pool frames currently held.
	Held() int
	// Floor is the number of frames the shrinker refuses to go below.
	Floor() int
	// EvictOne releases one frame as described above.
	EvictOne(p *sim.Proc) bool
}

// Pool is the physical frame allocator.
type Pool struct {
	capacity  int
	used      int
	shrinkers []Shrinker // reclaim preference order: earlier first

	// Counters for experiments.
	Reclaims int64

	// Telemetry handles; nil (no-op) until Instrument is called.
	telUsed     *telemetry.Gauge
	telReclaims *telemetry.Counter
}

// NewPool creates a pool of capacity frames.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		panic("mem: pool capacity must be positive")
	}
	return &Pool{capacity: capacity}
}

// Instrument registers the pool's metrics (frames-in-use gauge, reclaim
// counter) in r. A nil registry leaves updates as no-ops.
func (pl *Pool) Instrument(r *telemetry.Registry) {
	pl.telUsed = r.Gauge("mem.frames_used")
	pl.telReclaims = r.Counter("mem.reclaims")
}

// AddShrinker registers a reclaim source. Order matters: earlier
// shrinkers are squeezed first (e.g. the file cache before anonymous
// memory, mirroring Linux 2.2's preference for dropping clean page-cache
// pages before swapping).
func (pl *Pool) AddShrinker(s Shrinker) { pl.shrinkers = append(pl.shrinkers, s) }

// Capacity returns the total number of frames.
func (pl *Pool) Capacity() int { return pl.capacity }

// Used returns the number of frames currently allocated.
func (pl *Pool) Used() int { return pl.used }

// Free returns the number of unallocated frames.
func (pl *Pool) Free() int { return pl.capacity - pl.used }

// GrabFrame allocates one frame for the calling process, reclaiming from
// shrinkers if necessary. The reclaim I/O (if any) is charged to p. It
// panics if every shrinker is at its floor and no frame can be found —
// that is a wired-memory overcommit, a configuration bug.
func (pl *Pool) GrabFrame(p *sim.Proc) {
	for pl.used >= pl.capacity {
		if !pl.reclaimOne(p) {
			panic(fmt.Sprintf("mem: out of frames: capacity %d, all shrinkers at floor", pl.capacity))
		}
	}
	pl.used++
	pl.telUsed.Set(int64(pl.used))
}

// TryGrabFrame allocates a frame only if one is free, without reclaim.
func (pl *Pool) TryGrabFrame() bool {
	if pl.used >= pl.capacity {
		return false
	}
	pl.used++
	pl.telUsed.Set(int64(pl.used))
	return true
}

// ReturnFrames gives n frames back to the pool.
func (pl *Pool) ReturnFrames(n int) {
	if n < 0 || pl.used < n {
		panic(fmt.Sprintf("mem: returning %d frames with %d used", n, pl.used))
	}
	pl.used -= n
	pl.telUsed.Set(int64(pl.used))
}

// reclaimOne asks the highest-priority shrinker above its floor to give
// up one frame. It reports whether a frame was (or will have been) freed.
func (pl *Pool) reclaimOne(p *sim.Proc) bool {
	for _, s := range pl.shrinkers {
		if s.Held() <= s.Floor() {
			continue
		}
		if s.EvictOne(p) {
			pl.Reclaims++
			pl.telReclaims.Inc()
			return true
		}
	}
	// Second pass ignoring floors: prefer a squeezed system over a dead
	// one, mirroring a kernel's last-ditch reclaim.
	for _, s := range pl.shrinkers {
		if s.Held() > 0 && s.EvictOne(p) {
			pl.Reclaims++
			pl.telReclaims.Inc()
			return true
		}
	}
	return false
}

// Usage summarizes frame ownership for experiment output.
func (pl *Pool) Usage() map[string]int {
	u := map[string]int{"free": pl.Free()}
	accounted := 0
	for _, s := range pl.shrinkers {
		u[s.Name()] = s.Held()
		accounted += s.Held()
	}
	u["other"] = pl.used - accounted
	return u
}
