package sim

import (
	"fmt"

	"graybox/internal/telemetry"
)

// ProcState is a process's lifecycle state. Transitions:
//
//	New ──start event──▶ Running
//	Running ──Sleep──▶ Blocked ──wake──▶ Running
//	Running ──Block──▶ Blocked ──Unblock──▶ Runnable ──wake──▶ Running
//	Running ──Compute (CPUs busy)──▶ Runnable ──dispatch──▶ Running
//	Running ──body returns──▶ Done
//
// A process is Runnable between becoming eligible to run and actually
// running: unblocked (wake event queued) or waiting in a scheduler run
// queue.
type ProcState int

const (
	StateNew      ProcState = ProcState(procNew)
	StateRunnable ProcState = ProcState(procRunnable)
	StateRunning  ProcState = ProcState(procRunning)
	StateBlocked  ProcState = ProcState(procBlocked)
	StateDone     ProcState = ProcState(procDone)
)

func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

type procState int

const (
	procNew procState = iota
	procRunnable
	procRunning
	procBlocked // parked, waiting for an explicit Unblock or a timer wake
	procDone
)

// Proc is a cooperative simulated process. Its body runs on a dedicated
// goroutine, but the engine guarantees that at most one process goroutine
// executes at a time: a process runs until it parks in Sleep, Block or
// Compute, or returns, at which point control passes to the next process
// due or back to the driver loop.
type Proc struct {
	e     *Engine
	name  string
	state procState

	// Scheduler state (sched.go); idle/unused under the default
	// infinite-core model.
	left Time  // remaining CPU burst of the active Compute
	cpu  int32 // owning CPU while on-CPU, -1 otherwise
	enq  Time  // when the process joined the run queue

	// resume wakes this process's goroutine. Buffered size 0: the sender
	// blocks until the goroutine is at its receive, which is exactly the
	// handoff we want.
	resume chan struct{}

	// body waits here from Spawn until the start event starts the
	// process's goroutine (run); nil once it has started.
	body func(p *Proc)

	// track is this process's span timeline (nil when telemetry is off;
	// the nil track's methods are no-ops).
	track *telemetry.Track

	// Exit status.
	err error
}

// setState moves the process to s, maintaining the engine's O(1) count
// of blocked processes.
func (p *Proc) setState(s procState) {
	if p.state == procBlocked {
		p.e.nBlocked--
	}
	if s == procBlocked {
		p.e.nBlocked++
	}
	p.state = s
}

// Spawn creates a process named name whose body is fn and schedules it to
// start at delay from now. The body runs entirely on virtual time.
func (e *Engine) Spawn(name string, delay Time, fn func(p *Proc)) *Proc {
	if delay < 0 {
		panic("sim: negative delay")
	}
	if fn == nil {
		panic("sim: spawn of nil body")
	}
	p := &Proc{e: e, name: name, state: procNew, cpu: -1, resume: make(chan struct{}), body: fn}
	p.track = e.tel.NewTrack(name) // nil track when telemetry is off
	e.stats.Spawns++
	ev := e.push(e.now + delay)
	ev.proc, ev.kind = p, evStart
	return p
}

// run is the process's goroutine, started at its start event. It takes
// the body out of p.body, which then marks the process as started.
func (p *Proc) run() {
	body := p.body
	p.body = nil
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("proc %s panicked: %v", p.name, r)
		}
		p.exit()
	}()
	body(p)
}

// exit finishes the process and passes control on as park does, except
// that it goes back to the driver as soon as every process the running
// WaitAll waits for is done: WaitAll's exit test changes only here. Runs
// on the process goroutine, which at this point is the only one
// executing.
func (p *Proc) exit() {
	p.setState(procDone)
	e := p.e
	if e.driving == "WaitAll" && e.waitDone() {
		e.switchTo(nil)
		return
	}
	e.switchTo(e.nextProc())
}

// Go spawns a process starting immediately.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.Spawn(name, 0, fn)
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// State returns the process's lifecycle state.
func (p *Proc) State() ProcState { return ProcState(p.state) }

// Track returns the process's telemetry span track. It is nil when
// telemetry is disabled, and the nil track's methods are no-ops, so
// instrumentation sites call p.Track().Begin(...) unconditionally.
func (p *Proc) Track() *telemetry.Track { return p.track }

// Err returns the process's exit error (non-nil if the body panicked).
func (p *Proc) Err() error { return p.err }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == procDone }

// park suspends the calling process until the wake, run-queue dispatch
// or Unblock it has arranged. It fires the process events due next
// itself and hands control straight to the process they resume: no
// goroutine switch when that is the caller, one otherwise, to that
// process or, when no process event is due, to the driver.
func (p *Proc) park() {
	e := p.e
	next := e.nextProc()
	if next == p {
		return
	}
	e.switchTo(next)
	<-p.resume
}

// Sleep advances this process's virtual time by d, letting other events
// run in between. d must be >= 0; Sleep(0) yields to same-time events.
//
// When the wake would be the next event to fire, and the running driver
// would fire it, Sleep resumes in place: it advances the clock and
// consumes the wake's sequence number without queueing it or switching
// goroutines. The wake would carry the newest seq, so it fires next
// exactly when the earliest pending event is strictly later.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.e
	at := e.now + d
	if at <= e.horizon {
		if next := e.q.peek(); next == nil || next.at > at {
			e.now = at
			e.seq++
			return
		}
	}
	e.stats.SleepParks++
	p.setState(procBlocked)
	e.scheduleWake(at, p)
	p.park()
}

// Block parks the process until another party calls Unblock on it.
func (p *Proc) Block() {
	p.e.stats.BlockParks++
	p.setState(procBlocked)
	p.park()
}

// Unblock schedules p to resume at the current time (after already-queued
// same-time events). It is a no-op for finished processes and panics if p
// is not blocked, which would indicate a lost-wakeup bug in the caller.
func (e *Engine) Unblock(p *Proc) {
	if p.state == procDone {
		return
	}
	if p.state != procBlocked {
		panic(fmt.Sprintf("sim: Unblock(%s) but process is not blocked", p.name))
	}
	p.setState(procRunnable)
	e.scheduleWake(e.now, p)
}

// WaitAll runs the engine until every listed process has finished. It
// panics on simulation deadlock. Its exit test can change only when a
// process exits, so control comes back to it from the exit that
// finishes the last listed process (Proc.exit).
func (e *Engine) WaitAll(ps ...*Proc) {
	e.beginDrive("WaitAll", maxTime)
	defer e.endDrive()
	e.waits = ps
	for !e.waitDone() {
		if !e.step() {
			panic(fmt.Sprintf("sim: WaitAll deadlock at %v", e.now))
		}
	}
}

// waitDone reports whether every process the running WaitAll waits for
// has finished. It drops the finished prefix of e.waits as it goes,
// since a finished process stays finished.
func (e *Engine) waitDone() bool {
	for len(e.waits) > 0 && e.waits[0].state == procDone {
		e.waits = e.waits[1:]
	}
	return len(e.waits) == 0
}
