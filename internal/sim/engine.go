package sim

import (
	"fmt"
	"math"

	"graybox/internal/telemetry"
)

// event is a scheduled callback. Events with equal fire times run in
// scheduling order (seq), which keeps the simulation deterministic.
//
// Events are pooled: once fired the struct goes onto the queue's free
// list and is reused by a later push.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// proc, when non-nil, is handled instead of calling fn: kind selects
	// a wake, a start or a scheduler timeslice. Process wakes (Sleep,
	// Unblock) are the single hottest event type, and storing the process
	// directly avoids allocating a wake closure per sleep; starts and
	// slice events reuse the same field, so spawning and the SMP
	// scheduler's hot path are closure-free too.
	proc *Proc
	next *event // free-list link, nil while in the heap
	// kind discriminates proc events (evWake, evStart, evSlice);
	// meaningless for fn events.
	kind uint8
}

// Proc-event kinds.
const (
	evWake  uint8 = iota // resume ev.proc
	evStart              // start ev.proc's body (Spawn)
	evSlice              // timeslice expiry for ev.proc (sched.go)
)

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
//
// The engine is strictly single-threaded from the caller's perspective:
// although processes are goroutines, exactly one of them (or the driver
// loop itself) runs at any instant, with explicit handoff. This makes every
// run with the same seed bit-for-bit reproducible.
//
// The driver (Run, RunUntil, WaitAll) fires every closure event. A
// process that parks or exits fires the process events due next itself
// and hands control straight to the process they resume, so a park
// costs one goroutine switch, or none when the process resumed is the
// parker; control goes back to the driver only when a closure is due,
// the horizon is reached, the queue is empty, or the running WaitAll's
// processes are all done.
type Engine struct {
	now  Time
	seq  uint64
	rng  *RNG
	seed uint64

	// seq0 is the sequence number Restore started from (0 otherwise).
	seq0 uint64

	// q holds the pending events (queue.go).
	q queue

	// horizon is the latest time the running driver may fire an event:
	// maxTime under Run and WaitAll, the deadline under RunUntil, and
	// noHorizon otherwise. Proc.Sleep resumes in place, and a parking
	// process fires process events itself, only up to the horizon.
	horizon Time

	// driving names the driver call running ("Run", "RunUntil" or
	// "WaitAll"), or is empty between driver calls.
	driving string

	// waits holds the processes the running WaitAll waits for, less the
	// finished prefix that waitDone has dropped.
	waits []*Proc

	// yield carries control back from a running process to the driver
	// loop. All processes share it; only the currently-running process
	// ever sends on it.
	yield chan struct{}

	stats    Stats // work counters (Stats)
	nBlocked int   // processes in procBlocked, maintained by setState

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

// beginDrive opens a Run, RunUntil or WaitAll call named name that
// fires events up to horizon. Driver calls do not nest: one made while
// another runs, from a process body or an event callback, panics before
// it changes anything.
func (e *Engine) beginDrive(name string, horizon Time) {
	if e.driving != "" {
		panic(fmt.Sprintf("sim: %s called inside a running %s", name, e.driving))
	}
	e.driving, e.horizon = name, horizon
}

// endDrive closes a Run, RunUntil or WaitAll call.
func (e *Engine) endDrive() { e.driving, e.horizon, e.waits = "", noHorizon, nil }

// Stats counts an engine's work since NewEngine. The counts are exact:
// the same seed and inputs give the same counts on every host.
type Stats struct {
	Events        int64 // events fired: closures, process starts and wakes, slice expiries
	SleepsInPlace int64 // Sleep calls that resumed in place, with no event (derived in Stats)
	SleepParks    int64 // Sleep calls that queued a wake and parked
	BlockParks    int64 // Block calls
	ComputeParks  int64 // Compute calls that contended for a simulated CPU (SetCPUs)
	Spawns        int64 // Spawn calls

	// GoroutineSwitches counts each time control passed from one
	// goroutine to another: driver to process, process to process, or
	// process to driver. It is not ContextSwitches, which counts the SMP
	// scheduler's run-queue dispatches.
	GoroutineSwitches int64
}

// Stats returns the engine's work counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	// Every sequence number since NewEngine or Restore went to an event,
	// fired or still pending, or to a sleep that resumed in place, so the
	// in-place fast path needs no counter of its own.
	s.SleepsInPlace = int64(e.seq-e.seq0) - s.Events - int64(len(e.q.events))
	return s
}

// Seed returns the seed the engine (and its RNG) was created with.
func (e *Engine) Seed() uint64 { return e.seed }

// Checkpoint returns the clock and scheduling cursor of a quiescent
// engine, for snapshot machinery. It panics if events are still pending,
// processes are still blocked, or the scheduler still holds processes:
// snapshotting mid-flight state is not supported and would fork divergent
// copies.
func (e *Engine) Checkpoint() (now Time, seq uint64) {
	if n := len(e.q.events); n != 0 {
		panic(fmt.Sprintf("sim: Checkpoint with %d pending event(s)", n))
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
	if e.now != 0 || e.seq != 0 || e.stats.Spawns != 0 {
		panic("sim: Restore on an engine that has already run")
	}
	e.now, e.seq, e.seq0 = now, seq, seq
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

// Schedule runs fn at time at (which must not be in the past).
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule of nil callback")
	}
	e.push(at).fn = fn
}

// scheduleWake schedules p's resumption at time at without allocating a
// closure.
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
	e.q.insert(ev)
	return ev
}

// After runs fn after duration d.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.Schedule(e.now+d, fn)
}

// pop removes the earliest pending event, which must exist, advances the
// clock to it and recycles its record. It returns the event's callback,
// or its process and kind.
func (e *Engine) pop() (fn func(), p *Proc, kind uint8) {
	ev := e.q.popMin()
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.stats.Events++
	fn, p, kind = ev.fn, ev.proc, ev.kind
	e.q.recycle(ev)
	return fn, p, kind
}

// fireProc handles a process event (a start, a wake or a slice expiry)
// and returns the process that must run next, or nil. It runs on
// whichever goroutine holds control: the driver's or a parking
// process's.
func (e *Engine) fireProc(p *Proc, kind uint8) *Proc {
	switch kind {
	case evSlice:
		return e.sliceFire(p)
	case evWake:
		if p.state == procDone {
			return nil
		}
	}
	p.setState(procRunning)
	return p
}

// nextProc fires the process events at the head of the queue, up to the
// horizon, and returns the first process one of them resumes. It returns
// nil, for control to go back to the driver, when the head is a closure,
// lies past the horizon, or the queue is empty: closures fire only on
// the driver's goroutine.
func (e *Engine) nextProc() *Proc {
	for {
		ev := e.q.peek()
		if ev == nil || ev.proc == nil || ev.at > e.horizon {
			return nil
		}
		_, p, kind := e.pop()
		if next := e.fireProc(p, kind); next != nil {
			return next
		}
	}
}

// switchTo hands control to p's goroutine, starting it at p's start
// event, or to the driver when p is nil. The caller then waits for
// control to come back, or returns if it is exiting.
func (e *Engine) switchTo(p *Proc) {
	e.stats.GoroutineSwitches++
	switch {
	case p == nil:
		e.yield <- struct{}{}
	case p.body != nil:
		go p.run()
	default:
		p.resume <- struct{}{}
	}
}

// step fires the earliest pending event on the driver's goroutine. A
// process event hands control to its process until control comes back.
// It reports false when no events remain.
func (e *Engine) step() bool {
	if len(e.q.events) == 0 {
		return false
	}
	fn, p, kind := e.pop()
	if p == nil {
		fn()
	} else if next := e.fireProc(p, kind); next != nil {
		e.switchTo(next)
		<-e.yield
	}
	return true
}

// Run processes events until the queue is empty. It panics if processes
// remain blocked with no event that could ever wake them (a simulation
// deadlock), since silently returning would make such bugs easy to miss.
func (e *Engine) Run() {
	e.beginDrive("Run", maxTime)
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
	e.beginDrive("RunUntil", deadline)
	defer e.endDrive()
	for {
		ev := e.q.peek()
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
