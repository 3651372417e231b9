package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"graybox/internal/sim"
	"graybox/internal/simos"
)

// The experiment harnesses are embarrassingly parallel: every trial (a
// seed, a personality, a file size, a sweep point) constructs its own
// Platform — one engine, one RNG, one virtual clock — and shares nothing
// with its siblings. RunTrials fans those trials out over a worker pool
// and reassembles results in index order, so the rendered tables are
// byte-identical to a sequential run at any pool width.

// parallelism is the configured pool width; <= 0 means GOMAXPROCS.
var parallelism atomic.Int64

// Parallelism returns the current trial worker-pool width.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the trial worker-pool width (the CLI's -parallel
// flag). n <= 0 restores the default, GOMAXPROCS.
func SetParallelism(n int) { parallelism.Store(int64(n)) }

// RunTrials runs trial(0) .. trial(n-1) on the worker pool and returns
// their results in index order. Trials must be mutually independent; a
// panic inside any trial (the harness's mustRun/mustNoErr failure path)
// is re-raised in the caller, lowest index first.
func RunTrials[T any](n int, trial func(i int) T) []T {
	out := make([]T, n)
	ForEachTrial(n, func(i int) { out[i] = trial(i) })
	return out
}

// RunUnits executes heterogeneous independent units (closures writing to
// distinct destinations) through the same pool.
func RunUnits(units ...func()) {
	ForEachTrial(len(units), func(i int) { units[i]() })
}

// ForEachTrial is the pool core: it runs trial(0) .. trial(n-1), at most
// Parallelism() at a time, and returns when all have finished.
func ForEachTrial(n int, trial func(i int)) {
	if n <= 0 {
		return
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			trial(i)
		}
		return
	}
	type trialPanic struct {
		val   interface{}
		stack []byte
	}
	panics := make([]*trialPanic, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = &trialPanic{val: r, stack: debug.Stack()}
						}
					}()
					trial(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("experiments: trial %d panicked: %v\n%s", i, p.val, p.stack))
		}
	}
}

// Virtual-time accounting for the -bench-out report: the engine of every
// platform built through newSystem/newMultiDiskSystem is registered here,
// and the CLI drains the total after each experiment. Only the engine is
// kept, so a finished trial's machine can be collected. Mini-simulations
// that build raw engines (internal/priorart) are not tracked.
var (
	vtMu      sync.Mutex
	vtEngines []*sim.Engine
)

func trackSystem(s *simos.System) *simos.System {
	if telEnabled.Load() {
		r := s.EnableTelemetry()
		telMu.Lock()
		telRegs = append(telRegs, r)
		telMu.Unlock()
	}
	if audEnabled.Load() {
		a := s.EnableAudit()
		audMu.Lock()
		auditors = append(auditors, a)
		audMu.Unlock()
	}
	vtMu.Lock()
	vtEngines = append(vtEngines, s.Engine)
	vtMu.Unlock()
	return s
}

// TakeVirtualTime returns the summed final virtual clocks of every
// platform built since the previous call, and resets the accumulator.
func TakeVirtualTime() sim.Time {
	vtMu.Lock()
	defer vtMu.Unlock()
	var total sim.Time
	for _, e := range vtEngines {
		total += e.Now()
	}
	vtEngines = nil
	return total
}
