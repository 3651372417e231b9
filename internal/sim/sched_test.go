package sim

import (
	"fmt"
	"testing"
)

// --- Proc lifecycle (state machine) ---

// TestProcStateLifecycle walks one process through every lifecycle state
// and checks State() at each observable point. Transitions under test:
// New (spawned, start event pending) -> Running (start fired) ->
// Blocked (Sleep/Block) -> Runnable (Unblock) -> Done. The scheduler's
// Runnable (queued for a CPU) is TestSchedulerRunnableState's.
func TestProcStateLifecycle(t *testing.T) {
	e := NewEngine(1)
	var insideBody ProcState
	p := e.Spawn("p", 5*Microsecond, func(p *Proc) {
		insideBody = p.State()
		p.Sleep(10 * Microsecond)
		p.Block()
	})
	steps := []struct {
		name string
		run  func()
		want ProcState
	}{
		{"spawned, start pending", func() {}, StateNew},
		{"started, now sleeping", func() { e.RunUntil(5 * Microsecond) }, StateBlocked},
		{"woke, now blocked", func() { e.RunUntil(20 * Microsecond) }, StateBlocked},
		{"unblocked, wake pending", func() { e.Unblock(p) }, StateRunnable},
		{"body returned", func() { e.Run() }, StateDone},
	}
	for _, st := range steps {
		st.run()
		if got := p.State(); got != st.want {
			t.Fatalf("%s: State() = %v, want %v", st.name, got, st.want)
		}
	}
	if insideBody != StateRunning {
		t.Errorf("State() inside the body = %v, want %v", insideBody, StateRunning)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
}

func TestProcStateString(t *testing.T) {
	for _, c := range []struct {
		s    ProcState
		want string
	}{
		{StateNew, "new"}, {StateRunnable, "runnable"}, {StateRunning, "running"},
		{StateBlocked, "blocked"}, {StateDone, "done"}, {ProcState(99), "ProcState(99)"},
	} {
		if got := c.s.String(); got != c.want {
			t.Errorf("ProcState(%d).String() = %q, want %q", int(c.s), got, c.want)
		}
	}
}

// TestSpawnExitArenaReuse churns 200 waves of 8 short-lived processes
// through one engine and checks that every Spawn is counted.
func TestSpawnExitArenaReuse(t *testing.T) {
	e := NewEngine(1)
	const waves, perWave = 200, 8
	for w := 0; w < waves; w++ {
		ps := make([]*Proc, perWave)
		for i := range ps {
			ps[i] = e.Go(fmt.Sprintf("w%d.%d", w, i), func(p *Proc) {
				p.Sleep(Time(1+i) * Microsecond)
			})
		}
		e.WaitAll(ps...)
	}
	if n := e.Stats().Spawns; n != waves*perWave {
		t.Errorf("Stats().Spawns = %d, want %d", n, waves*perWave)
	}
}

// --- Scheduler semantics ---

// TestComputeUncontendedModel: with no CPUs configured, Compute is a pure
// timer — concurrent bursts overlap completely (the legacy infinite-core
// model every pre-scheduler experiment was measured under).
func TestComputeUncontendedModel(t *testing.T) {
	e := NewEngine(1)
	if e.CPUs() != 0 || e.Quantum() != 0 {
		t.Fatalf("default engine reports CPUs=%d quantum=%v, want 0/0", e.CPUs(), e.Quantum())
	}
	var endA, endB Time
	a := e.Go("a", func(p *Proc) { p.Compute(10 * Millisecond); endA = p.Now() })
	b := e.Go("b", func(p *Proc) { p.Compute(10 * Millisecond); endB = p.Now() })
	e.WaitAll(a, b)
	if endA != 10*Millisecond || endB != 10*Millisecond {
		t.Errorf("uncontended bursts ended at %v and %v, want both 10ms (full overlap)", endA, endB)
	}
	if n := e.ContextSwitches(); n != 0 {
		t.Errorf("ContextSwitches = %d without a scheduler, want 0", n)
	}
}

// TestComputeSingleCPUSerializes: on one CPU two equal bursts serialize
// FIFO — the second waits out the first.
func TestComputeSingleCPUSerializes(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(1, 0)
	if e.CPUs() != 1 || e.Quantum() != DefaultQuantum {
		t.Fatalf("CPUs=%d quantum=%v, want 1/%v", e.CPUs(), e.Quantum(), DefaultQuantum)
	}
	var endA, endB Time
	a := e.Go("a", func(p *Proc) { p.Compute(10 * Millisecond); endA = p.Now() })
	b := e.Go("b", func(p *Proc) { p.Compute(10 * Millisecond); endB = p.Now() })
	e.WaitAll(a, b)
	if endA != 10*Millisecond {
		t.Errorf("first burst ended at %v, want 10ms", endA)
	}
	if endB != 20*Millisecond {
		t.Errorf("second burst ended at %v, want 20ms (serialized behind the first)", endB)
	}
}

// TestComputeRoundRobinSlicing: two 3ms bursts on one CPU with a 1ms
// quantum interleave slice by slice: a runs [0,1) [2,3) [4,5), b runs
// [1,2) [3,4) [5,6).
func TestComputeRoundRobinSlicing(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(1, Millisecond)
	var endA, endB Time
	a := e.Go("a", func(p *Proc) { p.Compute(3 * Millisecond); endA = p.Now() })
	b := e.Go("b", func(p *Proc) { p.Compute(3 * Millisecond); endB = p.Now() })
	e.WaitAll(a, b)
	if endA != 5*Millisecond || endB != 6*Millisecond {
		t.Errorf("round-robin bursts ended at %v and %v, want 5ms and 6ms", endA, endB)
	}
}

// TestComputeUncontendedKeepsCPU: a lone burst longer than the quantum
// runs to completion with no context switches — quantum expiry with an
// empty queue re-arms in place.
func TestComputeUncontendedKeepsCPU(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(1, 10*Millisecond)
	var end Time
	p := e.Go("p", func(p *Proc) { p.Compute(55 * Millisecond); end = p.Now() })
	e.WaitAll(p)
	if end != 55*Millisecond {
		t.Errorf("lone burst ended at %v, want 55ms", end)
	}
	if n := e.ContextSwitches(); n != 0 {
		t.Errorf("ContextSwitches = %d for a lone process, want 0", n)
	}
}

// TestComputeLowestIdleCPUFirst: with two CPUs, the first two arrivals
// take CPUs 0 and 1; the third queues and finishes a full burst later.
func TestComputeLowestIdleCPUFirst(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(2, 0)
	ends := make([]Time, 3)
	var ps []*Proc
	for i := 0; i < 3; i++ {
		i := i
		ps = append(ps, e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Compute(10 * Millisecond)
			ends[i] = p.Now()
		}))
	}
	e.WaitAll(ps...)
	if ends[0] != 10*Millisecond || ends[1] != 10*Millisecond {
		t.Errorf("first two bursts ended at %v and %v, want both 10ms (own CPUs)", ends[0], ends[1])
	}
	if ends[2] != 20*Millisecond {
		t.Errorf("third burst ended at %v, want 20ms (queued behind a full burst)", ends[2])
	}
	if n := e.ContextSwitches(); n != 1 {
		t.Errorf("ContextSwitches = %d, want 1 (one dispatch off a run queue)", n)
	}
}

// TestSchedulerRunnableState: a queued process is observably Runnable,
// an on-CPU computing process observably Running.
func TestSchedulerRunnableState(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(1, 10*Millisecond)
	a := e.Go("a", func(p *Proc) { p.Compute(4 * Millisecond) })
	b := e.Go("b", func(p *Proc) { p.Compute(4 * Millisecond) })
	e.After(Millisecond, func() {
		if got := a.State(); got != StateRunning {
			t.Errorf("on-CPU process State() = %v, want %v", got, StateRunning)
		}
		if got := b.State(); got != StateRunnable {
			t.Errorf("queued process State() = %v, want %v", got, StateRunnable)
		}
	})
	e.WaitAll(a, b)
}

// TestComputeMixedSleepers: sleepers do not occupy CPUs — a sleeping
// process costs the scheduler nothing while computers contend.
func TestComputeMixedSleepers(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(1, 0)
	var endSleep, endWork Time
	s := e.Go("sleeper", func(p *Proc) { p.Sleep(5 * Millisecond); endSleep = p.Now() })
	w := e.Go("worker", func(p *Proc) { p.Compute(10 * Millisecond); endWork = p.Now() })
	e.WaitAll(s, w)
	if endSleep != 5*Millisecond {
		t.Errorf("sleeper woke at %v, want 5ms (sleep never contends)", endSleep)
	}
	if endWork != 10*Millisecond {
		t.Errorf("worker finished at %v, want 10ms", endWork)
	}
}

// TestComputeZeroAndNegative: Compute(0) is a no-op in both models;
// negative bursts panic.
func TestComputeZeroAndNegative(t *testing.T) {
	for _, cpus := range []int{0, 1} {
		e := NewEngine(1)
		e.SetCPUs(cpus, 0)
		p := e.Go("p", func(p *Proc) {
			p.Compute(0)
			if p.Now() != 0 {
				t.Errorf("cpus=%d: Compute(0) advanced the clock to %v", cpus, p.Now())
			}
			defer func() {
				if recover() == nil {
					t.Errorf("cpus=%d: Compute(-1) did not panic", cpus)
				}
			}()
			p.Compute(-1)
		})
		e.WaitAll(p)
	}
}

// TestSetCPUsAfterSpawnPanics: scheduling state cannot change under
// running processes.
func TestSetCPUsAfterSpawnPanics(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("p", func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Error("SetCPUs after Spawn did not panic")
		}
		e.WaitAll(p)
	}()
	e.SetCPUs(2, 0)
}

// TestSchedulerDeterministicReplay: the same contended workload on two
// engines produces identical per-process finish times and switch counts.
func TestSchedulerDeterministicReplay(t *testing.T) {
	run := func() ([]Time, int64) {
		e := NewEngine(7)
		e.SetCPUs(2, Millisecond)
		ends := make([]Time, 12)
		var ps []*Proc
		for i := 0; i < 12; i++ {
			i := i
			ps = append(ps, e.Spawn(fmt.Sprintf("p%d", i), Time(i%5)*Microsecond, func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Compute(Time(1+(i+k)%4) * Millisecond)
					p.Sleep(Time(i%3) * Millisecond)
				}
				ends[i] = p.Now()
			}))
		}
		e.WaitAll(ps...)
		return ends, e.ContextSwitches()
	}
	ends1, sw1 := run()
	ends2, sw2 := run()
	for i := range ends1 {
		if ends1[i] != ends2[i] {
			t.Errorf("proc %d finished at %v then %v across identical runs", i, ends1[i], ends2[i])
		}
	}
	if sw1 != sw2 {
		t.Errorf("ContextSwitches = %d then %d across identical runs", sw1, sw2)
	}
	if sw1 == 0 {
		t.Error("workload produced no context switches; test exercises nothing")
	}
}

// TestCheckpointWithScheduler: a quiescent engine with CPUs configured
// checkpoints, and a fresh engine restores the cursor with the same
// scheduler configuration (the snapshot/fork path for contended
// platforms).
func TestCheckpointWithScheduler(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(2, Millisecond)
	p := e.Go("p", func(p *Proc) { p.Compute(5 * Millisecond) })
	e.WaitAll(p)
	now, seq := e.Checkpoint()
	if now != 5*Millisecond {
		t.Fatalf("checkpoint now = %v, want 5ms", now)
	}
	f := NewEngine(1)
	f.SetCPUs(2, Millisecond)
	f.Restore(now, seq)
	q := f.Go("q", func(p *Proc) { p.Compute(3 * Millisecond) })
	f.WaitAll(q)
	if got := f.Now(); got != 8*Millisecond {
		t.Errorf("restored engine at %v after a 3ms burst, want 8ms", got)
	}
}

// TestCheckpointPanicsWithBusyScheduler: checkpointing while a process
// holds a CPU is a quiescence violation, like pending events.
func TestCheckpointPanicsWithBusyScheduler(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(1, 10*Millisecond)
	a := e.Go("a", func(p *Proc) { p.Compute(20 * Millisecond) })
	e.RunUntil(Millisecond) // a is mid-burst, on CPU
	defer func() {
		if recover() == nil {
			t.Error("Checkpoint with a process on CPU did not panic")
		}
		e.WaitAll(a)
	}()
	e.Checkpoint()
}

// TestSchedSteadyStateAllocs guards the hot path: once the event pool and
// run-queue arenas are warm, contended compute (submit, dispatch, slice
// re-arm, park/wake) must allocate nothing.
func TestSchedSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	e.SetCPUs(2, Millisecond)
	for i := 0; i < 8; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for {
				p.Compute(Time(1+i%3) * Millisecond)
				p.Sleep(Time(i%2) * Millisecond)
			}
		})
	}
	e.RunUntil(200 * Millisecond) // warm pools and arenas
	next := e.Now()
	allocs := testing.AllocsPerRun(100, func() {
		next += 10 * Millisecond
		e.RunUntil(next)
	})
	if allocs != 0 {
		t.Errorf("scheduler steady state allocs/op = %v, want 0", allocs)
	}
}

// --- Scale benchmarks ---

// BenchmarkSched100kProcs runs one trial of 100k short-lived processes
// contending for 4 CPUs — the scale target from ROADMAP item 1. Spawn
// itself allocates (a Proc, a goroutine); the scheduling of the bursts
// does not (see TestSchedSteadyStateAllocs / BenchmarkSchedDispatch for
// the 0 allocs/op guarantee on the hot path).
func BenchmarkSched100kProcs(b *testing.B) {
	const n = 100_000
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		e.SetCPUs(4, Millisecond)
		ps := make([]*Proc, n)
		for j := 0; j < n; j++ {
			j := j
			ps[j] = e.Spawn(fmt.Sprintf("p%d", j), Time(j%1000)*Microsecond, func(p *Proc) {
				p.Compute(Time(100+j%400) * Microsecond)
			})
		}
		e.WaitAll(ps...)
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "procs/s")
}

// BenchmarkSched1MProcs runs one trial of 10⁶ short-lived processes
// contending for 4 simulated CPUs, in waves of 32768 live processes so
// goroutine stacks stay bounded.
func BenchmarkSched1MProcs(b *testing.B) {
	const (
		total = 1_000_000
		wave  = 32_768
	)
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		e.SetCPUs(4, Millisecond)
		ps := make([]*Proc, 0, wave)
		for done := 0; done < total; {
			n := min(wave, total-done)
			ps = ps[:0]
			for j := done; j < done+n; j++ {
				j := j
				ps = append(ps, e.Spawn(fmt.Sprintf("p%d", j), Time(j%1000)*Microsecond, func(p *Proc) {
					p.Compute(Time(100+j%400) * Microsecond)
				}))
			}
			e.WaitAll(ps...)
			done += n
		}
		e.Run()
	}
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "procs/s")
}

// BenchmarkSchedDispatch measures one steady-state scheduler round —
// slice expiry, rotation, dispatch, park/wake — with 8 processes on 2
// CPUs. The interesting number is allocs/op: 0.
func BenchmarkSchedDispatch(b *testing.B) {
	e := NewEngine(1)
	e.SetCPUs(2, Millisecond)
	for i := 0; i < 8; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for {
				p.Compute(Time(1+i%3) * Millisecond)
			}
		})
	}
	e.RunUntil(100 * Millisecond)
	next := e.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next += Millisecond
		e.RunUntil(next)
	}
}
