package sim

import (
	"fmt"
	"math"

	"graybox/internal/telemetry"
)

// event is a scheduled callback. Events with equal fire times run in
// scheduling order (seq), which keeps the simulation deterministic.
//
// Events are pooled: once fired or drained as a tombstone the struct goes
// onto the queue's free list and is reused by a later Schedule. Every
// push stamps a fresh, ever-rising seq, and a handle acts only while its
// seq matches, so stale Event handles can never touch the new occupant.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// proc, when non-nil, is handled instead of calling fn: kind selects
	// a wake or a scheduler timeslice. Process wakes (Sleep, Unblock) are
	// the single hottest event type, and storing the process directly
	// avoids allocating a wake closure per sleep; slice events reuse the
	// same field so the SMP scheduler's hot path is closure-free too.
	proc *Proc
	next *event // free-list link, nil while in the heap
	// kind discriminates proc events (evWake, evSlice); meaningless for
	// fn events.
	kind uint8
}

// Proc-event kinds.
const (
	evWake  uint8 = iota // resume ev.proc
	evSlice              // timeslice expiry for ev.proc (sched.go)
)

// dead reports whether the slot is a tombstone (canceled or recycled).
func (ev *event) dead() bool { return ev.fn == nil && ev.proc == nil }

// Event is a cancelable handle to a scheduled callback, returned by
// Schedule and After. The zero value is inert: Cancel on it is a no-op.
type Event struct {
	ev  *event
	seq uint64
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
//
// The engine is strictly single-threaded from the caller's perspective:
// although processes are goroutines, exactly one of them (or the engine
// loop itself) runs at any instant, with explicit handoff. This makes every
// run with the same seed bit-for-bit reproducible.
type Engine struct {
	now  Time
	seq  uint64
	rng  *RNG
	seed uint64

	// live is the number of scheduled events that have been neither fired
	// nor canceled.
	live int

	// q holds the pending events (queue.go).
	q queue

	// horizon is the latest time the running driver may fire an event:
	// maxTime under Run and WaitAll, the deadline under RunUntil, and
	// noHorizon otherwise. Proc.Sleep resumes in place only when its wake
	// would fire next and by the horizon.
	horizon Time

	// yield carries control back from a running process to the engine
	// loop. All processes share it; only the currently-running process
	// ever sends on it.
	yield chan struct{}

	spawned  uint64 // total Spawn calls, ever
	nBlocked int    // processes in procBlocked, maintained by setState

	// sched is the SMP scheduler; nil (the default) is the uncontended
	// infinite-core model where Compute is a pure timer. See sched.go.
	sched *scheduler

	// tel is the engine's telemetry registry; nil (the default) disables
	// all instrumentation at zero cost.
	tel *telemetry.Registry
}

// NewEngine returns an engine with the clock at zero and a deterministic
// RNG seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:     NewRNG(seed),
		seed:    seed,
		yield:   make(chan struct{}),
		horizon: noHorizon,
	}
}

// Driver horizons (Engine.horizon).
const (
	maxTime Time = math.MaxInt64
	// noHorizon is below every wake time, so a bare step never resumes a
	// sleeper in place.
	noHorizon Time = -1
)

// endDrive closes a Run, RunUntil or WaitAll call.
func (e *Engine) endDrive() { e.horizon = noHorizon }

// Seed returns the seed the engine (and its RNG) was created with.
func (e *Engine) Seed() uint64 { return e.seed }

// Checkpoint returns the clock and scheduling cursor of a quiescent
// engine, for snapshot machinery. It panics if events are still pending,
// processes are still blocked, or the scheduler still holds processes:
// snapshotting mid-flight state is not supported and would fork divergent
// copies.
func (e *Engine) Checkpoint() (now Time, seq uint64) {
	if e.live != 0 {
		panic(fmt.Sprintf("sim: Checkpoint with %d pending event(s)", e.live))
	}
	if n := e.liveBlocked(); n != 0 {
		panic(fmt.Sprintf("sim: Checkpoint with %d blocked process(es)", n))
	}
	if n := e.schedBusy(); n != 0 {
		panic(fmt.Sprintf("sim: Checkpoint with %d process(es) on CPU or run queue", n))
	}
	return e.now, e.seq
}

// Restore sets the clock and scheduling cursor of a freshly built engine
// to a Checkpoint's values, so events scheduled afterwards continue the
// original (at, seq) order. It panics if the engine has already run.
func (e *Engine) Restore(now Time, seq uint64) {
	if e.now != 0 || e.seq != 0 || e.spawned != 0 {
		panic("sim: Restore on an engine that has already run")
	}
	e.now, e.seq = now, seq
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTelemetry attaches a telemetry registry: processes spawned from now
// on get span tracks. A nil registry (the default) disables telemetry.
func (e *Engine) SetTelemetry(r *telemetry.Registry) {
	e.tel = r
	e.instrumentSched()
}

// Telemetry returns the attached registry (nil when disabled). The nil
// registry is safe to use: all its methods and handles are no-ops.
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// NowNS reports virtual time as int64 nanoseconds — the telemetry.Clock
// for registries attached to this engine.
func (e *Engine) NowNS() int64 { return int64(e.now) }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Schedule runs fn at time at (which must not be in the past). It returns
// a handle that can be used to cancel the event.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule of nil callback")
	}
	ev := e.push(at)
	ev.fn = fn
	return Event{ev: ev, seq: ev.seq}
}

// scheduleWake schedules p.wake() at time at without allocating a closure.
func (e *Engine) scheduleWake(at Time, p *Proc) {
	e.push(at).proc = p
}

// push takes an event struct off the free list (or allocates one), stamps
// it with the next sequence number, and queues it. The caller sets fn or
// proc.
func (e *Engine) push(at Time) *event {
	ev := e.q.take()
	ev.at, ev.seq = at, e.seq
	e.seq++
	e.live++
	e.q.insert(ev)
	return ev
}

// After runs fn after duration d.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel removes a scheduled event. Canceling an already-fired or
// already-canceled event (or the zero Event) is a no-op, so Cancel is safe
// to call twice. Cancellation is lazy: the slot stays where it is as a
// tombstone (fn == nil) and is discarded when it surfaces, making Cancel
// O(1) instead of the O(n) scan + O(log n) removal it replaces.
func (e *Engine) Cancel(h Event) {
	ev := h.ev
	if ev == nil || ev.seq != h.seq || ev.dead() {
		return
	}
	ev.fn, ev.proc = nil, nil
	e.live--
	// If churny callers (timeouts that almost always cancel) fill the heap
	// with tombstones, compact rather than let them pile up unboundedly.
	if dead := len(e.q.events) - e.live; dead > 64 && dead > e.live {
		e.q.compact()
	}
}

// step fires the earliest pending live event. It reports false when no
// live events remain.
func (e *Engine) step() bool {
	ev := e.q.peekLive()
	if ev == nil {
		return false
	}
	e.q.popMin()
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.live--
	fn, p, kind := ev.fn, ev.proc, ev.kind
	e.q.recycle(ev)
	switch {
	case p == nil:
		fn()
	case kind == evSlice:
		e.sliceFire(p)
	default:
		p.wake()
	}
	return true
}

// Run processes events until the queue is empty. It panics if processes
// remain blocked with no event that could ever wake them (a simulation
// deadlock), since silently returning would make such bugs easy to miss.
func (e *Engine) Run() {
	e.horizon = maxTime
	defer e.endDrive()
	for e.step() {
	}
	if e.liveBlocked() > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with empty event queue at %v", e.liveBlocked(), e.now))
	}
}

// RunUntil processes events with fire times <= deadline and then advances
// the clock to exactly deadline. Blocked processes are left parked.
func (e *Engine) RunUntil(deadline Time) {
	e.horizon = deadline
	defer e.endDrive()
	for {
		ev := e.q.peekLive()
		if ev == nil || ev.at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// liveBlocked counts processes that are parked and not finished. It is
// O(1): setState maintains the count.
func (e *Engine) liveBlocked() int { return e.nBlocked }

// Idle reports whether no live events are pending.
func (e *Engine) Idle() bool { return e.live == 0 }
