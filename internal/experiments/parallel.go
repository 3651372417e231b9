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

// snapshotReuse gates the copy-on-write platform path: when on (the
// default), sweeps that run many trials on the same aged platform build
// it once, Snapshot it, and Fork a copy per trial instead of re-aging a
// cold machine every time. Forked trials are byte-identical to cold
// builds (the snapshot contract, pinned by simos.TestForkMatchesColdBuild
// and TestParallelDeterminism), so this is purely a setup-cost
// optimization.
var snapshotReuse atomic.Bool

func init() { snapshotReuse.Store(true) }

// SnapshotReuse reports whether sweeps fork trials from a shared
// platform snapshot.
func SnapshotReuse() bool { return snapshotReuse.Load() }

// SetSnapshotReuse toggles the snapshot path (the CLI's -snapshot flag).
func SetSnapshotReuse(on bool) { snapshotReuse.Store(on) }

// SnapshotPlatform lazily builds one base platform, snapshots it, and
// hands each trial a private fork. build must construct the platform
// with buildSystem (untracked) plus harness-time setup only — no
// processes, no randomness — so that build(seed) and Fork(seed) are
// interchangeable; the Snapshot call enforces those preconditions. With
// snapshot reuse off, every Trial falls back to a cold build(seed).
// Trial is safe for concurrent use by pool workers. If building or
// snapshotting the base panics, every Trial re-raises that panic.
type SnapshotPlatform struct {
	build func(seed uint64) *simos.System
	snap  func() *simos.Snapshot
}

// NewSnapshotPlatform wraps an untracked platform builder.
func NewSnapshotPlatform(build func(seed uint64) *simos.System) *SnapshotPlatform {
	return &SnapshotPlatform{
		build: build,
		snap:  sync.OnceValue(func() *simos.Snapshot { return build(0).Snapshot() }),
	}
}

// Trial returns a machine seeded with seed, either forked from the
// shared snapshot or cold-built, and registers it with the harness
// (telemetry, audit, virtual-time) exactly as newSystem would.
func (sp *SnapshotPlatform) Trial(seed uint64) *simos.System {
	if !snapshotReuse.Load() {
		return trackSystem(sp.build(seed))
	}
	return trackSystem(sp.snap().Fork(seed))
}

// RunTrialsWithSnapshot is RunTrials for sweeps whose trials share one
// platform configuration: the aged base is built once (on the first
// trial to need it) and forked per trial. seedOf maps a trial index to
// its platform seed; trial receives its private machine.
func RunTrialsWithSnapshot[T any](n int, build func(seed uint64) *simos.System,
	seedOf func(i int) uint64, trial func(i int, s *simos.System) T) []T {
	sp := NewSnapshotPlatform(build)
	return RunTrials(n, func(i int) T {
		return trial(i, sp.Trial(seedOf(i)))
	})
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
