package sim

import (
	"fmt"

	"graybox/internal/ring"
	"graybox/internal/telemetry"
)

// Simulated SMP scheduler (DESIGN.md §17). By default the engine models
// infinitely many processors: Proc.Compute is a pure timer and CPU
// bursts from concurrent processes overlap freely — cheap, and exactly
// the model every experiment before the scheduler existed was measured
// under. SetCPUs(n) for n >= 1 replaces that with n simulated
// processors: computing processes occupy a CPU, waiters queue on
// per-CPU FIFO run queues (intrusive ring.List arenas — no allocation
// per enqueue), and a round-robin timeslice preempts in virtual time.
//
// Dispatch is deterministic by construction:
//
//   - A process that becomes runnable takes the lowest-indexed idle
//     CPU; if none is idle it joins the shortest run queue (ties broken
//     by lowest CPU index). No randomness, no work stealing.
//   - A CPU that frees up runs the head of its own queue (FIFO, so
//     same-time arrivals dispatch in spawn/submission order — the
//     engine's (at, seq) event order).
//   - At quantum expiry a contended process goes to the back and the
//     head dispatches; an uncontended process keeps its CPU with no
//     switch charged, so a lone computing process runs for exactly its
//     requested burst in one stretch.
//
// All scheduler bookkeeping runs inside the engine's single-threaded
// event loop; timeslices are pool events (kind evSlice), so the steady
// state allocates nothing.

// DefaultQuantum is the round-robin timeslice when SetCPUs is given a
// non-positive quantum — 10ms, the classic 100 Hz kernel tick.
const DefaultQuantum = 10 * Millisecond

// schedCPU is one simulated processor: the process currently charged on
// it and the FIFO of runnable processes waiting for it.
type schedCPU struct {
	id   int
	cur  *Proc            // nil while idle
	runq ring.List[*Proc] // waiters, front = next to dispatch

	switches int64 // dispatches off the run queue (involuntary multiplexing)

	// Telemetry handles, nil (free no-ops) when disabled.
	runnable *telemetry.Gauge
	ctxsw    *telemetry.Counter
}

// scheduler is the engine's SMP state; a nil scheduler is the legacy
// uncontended infinite-core model.
type scheduler struct {
	cpus    []schedCPU
	quantum Time
}

// SetCPUs configures n simulated processors with the given round-robin
// quantum (<= 0 selects DefaultQuantum). n <= 0 restores the default
// uncontended model in which Compute is a pure timer. It must be called
// before any process is spawned — scheduling state cannot change under
// running processes.
func (e *Engine) SetCPUs(n int, quantum Time) {
	if e.spawned != 0 {
		panic("sim: SetCPUs after processes have spawned")
	}
	if n <= 0 {
		e.sched = nil
		return
	}
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	s := &scheduler{quantum: quantum, cpus: make([]schedCPU, n)}
	for i := range s.cpus {
		s.cpus[i].id = i
	}
	e.sched = s
	e.instrumentSched()
}

// CPUs returns the number of simulated processors (0 = the uncontended
// infinite-core model).
func (e *Engine) CPUs() int {
	if e.sched == nil {
		return 0
	}
	return len(e.sched.cpus)
}

// Quantum returns the round-robin timeslice (0 when no CPUs are
// configured).
func (e *Engine) Quantum() Time {
	if e.sched == nil {
		return 0
	}
	return e.sched.quantum
}

// ContextSwitches returns the total run-queue dispatches across all
// CPUs — the involuntary multiplexing the contended model introduces.
func (e *Engine) ContextSwitches() int64 {
	var n int64
	if e.sched != nil {
		for i := range e.sched.cpus {
			n += e.sched.cpus[i].switches
		}
	}
	return n
}

// instrumentSched creates the per-CPU telemetry handles. Called from
// both SetTelemetry and SetCPUs so the order of the two doesn't matter.
func (e *Engine) instrumentSched() {
	if e.tel == nil || e.sched == nil {
		return
	}
	for i := range e.sched.cpus {
		c := &e.sched.cpus[i]
		c.runnable = e.tel.Gauge(fmt.Sprintf("sched.cpu%d.runnable", i))
		c.ctxsw = e.tel.Counter(fmt.Sprintf("sched.cpu%d.switches", i))
	}
}

// schedBusy counts processes on CPU or queued — the scheduler half of
// the engine's quiescence invariant.
func (e *Engine) schedBusy() int {
	n := 0
	if e.sched != nil {
		for i := range e.sched.cpus {
			c := &e.sched.cpus[i]
			if c.cur != nil {
				n++
			}
			n += c.runq.Len()
		}
	}
	return n
}

// submit hands a process with a pending compute burst (p.left > 0) to
// the scheduler: the lowest-indexed idle CPU runs it immediately;
// otherwise it joins the shortest run queue, ties to the lowest index.
func (s *scheduler) submit(e *Engine, p *Proc) {
	best := -1
	for i := range s.cpus {
		c := &s.cpus[i]
		if c.cur == nil {
			s.assign(e, c, p)
			return
		}
		if best < 0 || c.runq.Len() < s.cpus[best].runq.Len() {
			best = i
		}
	}
	c := &s.cpus[best]
	p.setState(procRunnable)
	p.enq = e.now
	p.cpu = int32(best)
	p.rqh = c.runq.PushBack(p)
	c.runnable.Set(int64(c.runq.Len()))
}

// assign puts p on CPU c and arms its timeslice. p must hold a pending
// burst and c must be idle.
func (s *scheduler) assign(e *Engine, c *schedCPU, p *Proc) {
	c.cur = p
	p.cpu = int32(c.id)
	p.setState(procRunning)
	e.armSlice(p)
}

// dispatch runs the head of c's run queue, if any, attributing the time
// it waited to its request span (run-queue wait is queueing, not
// service).
func (s *scheduler) dispatch(e *Engine, c *schedCPU) {
	if c.runq.Len() == 0 {
		return
	}
	p := c.runq.Remove(c.runq.Front())
	p.rqh = ring.None
	c.runnable.Set(int64(c.runq.Len()))
	c.switches++
	c.ctxsw.Inc()
	p.track.SchedWait(int64(e.now - p.enq))
	s.assign(e, c, p)
}

// armSlice schedules p's next timeslice expiry: the remaining burst,
// capped at the quantum. Slice events come from the event pool (kind
// evSlice), so re-arming allocates nothing.
func (e *Engine) armSlice(p *Proc) {
	run := p.left
	if q := e.sched.quantum; run > q {
		run = q
	}
	ev := e.push(e.now + run)
	ev.proc = p
	ev.kind = evSlice
}

// sliceFire handles a timeslice expiry for p (event context). The
// elapsed slice is charged against the burst; a finished process frees
// its CPU (dispatching the next waiter) and resumes, an unfinished one
// either keeps the CPU (empty queue) or rotates to the back of the
// scheduler, round-robin.
func (e *Engine) sliceFire(p *Proc) {
	s := e.sched
	c := &s.cpus[p.cpu]
	run := p.left
	if run > s.quantum {
		run = s.quantum
	}
	p.left -= run
	if p.left == 0 {
		c.cur, p.cpu = nil, -1
		s.dispatch(e, c)
		p.wake()
		return
	}
	if c.runq.Len() == 0 {
		// Uncontended: keep the CPU. Not a context switch.
		e.armSlice(p)
		return
	}
	c.cur, p.cpu = nil, -1
	s.dispatch(e, c)
	s.submit(e, p)
}

// Compute charges d of CPU time to this process. With no CPUs
// configured (the default) it is a pure timer — bursts from concurrent
// processes overlap as if every process had its own processor. With
// SetCPUs(n) the burst contends: the process occupies a simulated CPU
// (queueing behind earlier arrivals when all are busy) and resumes only
// after d of CPU service, round-robin sliced against its competitors.
func (p *Proc) Compute(d Time) {
	if d < 0 {
		panic("sim: negative compute")
	}
	if d == 0 {
		return
	}
	if p.e.sched == nil {
		p.Sleep(d)
		return
	}
	p.left = d
	p.e.sched.submit(p.e, p)
	p.park()
}
