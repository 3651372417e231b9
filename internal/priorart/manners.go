package priorart

import (
	"graybox/internal/sim"
	"graybox/internal/stats"
)

// --- MS Manners ---
//
// Gray-box knowledge: one process competing with another degrades the
// other's progress roughly symmetrically to its own. Observed output:
// the low-importance process's own reported progress. Statistics: a
// regression-derived expectation of uncontended progress, exponential
// averaging, and the paired-sample sign test. Control: suspend the
// low-importance job when contention is inferred.

// MannersConfig describes the regulated low-importance job and a
// high-importance foreground job that arrives partway through.
type MannersConfig struct {
	Quantum sim.Time // CPU slice per progress step
	// BaselineSteps is how many uncontended steps are measured first to
	// establish expected progress.
	BaselineSteps int
	// Duration of the whole experiment.
	Duration sim.Time
	// ForegroundStart/ForegroundEnd bound the high-importance activity.
	ForegroundStart, ForegroundEnd sim.Time
	// DegradeThreshold is the fraction of expected progress below which
	// Manners suspends (e.g. 0.7).
	DegradeThreshold float64
	// SuspendFor is how long the low-importance job sleeps when it
	// detects contention.
	SuspendFor sim.Time
	// Regulate enables the Manners policy; false runs unregulated.
	Regulate bool
	Seed     uint64
}

// DefaultMannersConfig returns the base setup.
func DefaultMannersConfig() MannersConfig {
	return MannersConfig{
		Quantum:          10 * sim.Millisecond,
		BaselineSteps:    20,
		Duration:         20 * sim.Second,
		ForegroundStart:  5 * sim.Second,
		ForegroundEnd:    15 * sim.Second,
		DegradeThreshold: 0.7,
		SuspendFor:       500 * sim.Millisecond,
		Regulate:         true,
	}
}

// MannersResult reports how both jobs fared.
type MannersResult struct {
	// ForegroundSlowdown is foreground work time with the background
	// present divided by its dedicated time, during the contention
	// window.
	ForegroundSteps int64
	BackgroundSteps int64
	Suspensions     int64
	// SignTestP is the paired-sample sign-test p-value comparing
	// contended step times against the baseline (small means clearly
	// degraded — the statistic MS Manners uses).
	SignTestP float64
}

// RunManners simulates one CPU shared round-robin by a low-importance
// process (regulated by Manners) and a foreground process active during
// [ForegroundStart, ForegroundEnd).
func RunManners(cfg MannersConfig) MannersResult {
	e := sim.NewEngine(cfg.Seed)
	cpu := sim.NewResource(e)
	var res MannersResult

	// Foreground: computes in quanta during its window.
	e.Spawn("fg", cfg.ForegroundStart, func(p *sim.Proc) {
		for p.Now() < cfg.ForegroundEnd {
			cpu.Acquire(p)
			p.Sleep(cfg.Quantum)
			cpu.Release()
			res.ForegroundSteps++
		}
	})

	// Low-importance background regulated by Manners.
	e.Go("bg", func(p *sim.Proc) {
		baseline := stats.Running{}
		avg := stats.NewExpAvg(0.3)
		var baseTimes, recentTimes []float64
		for p.Now() < cfg.Duration {
			t0 := p.Now()
			cpu.Acquire(p)
			p.Sleep(cfg.Quantum)
			cpu.Release()
			stepTime := float64(p.Now() - t0)
			res.BackgroundSteps++

			if baseline.N() < int64(cfg.BaselineSteps) {
				baseline.Add(stepTime)
				baseTimes = append(baseTimes, stepTime)
				continue
			}
			avg.Add(stepTime)
			recentTimes = append(recentTimes, stepTime)
			if len(recentTimes) > cfg.BaselineSteps {
				recentTimes = recentTimes[1:]
			}
			if !cfg.Regulate {
				continue
			}
			// Progress = expected/observed step time. Suspend when the
			// smoothed progress falls below the threshold.
			progress := baseline.Mean() / avg.Value()
			if progress < cfg.DegradeThreshold {
				res.Suspensions++
				p.Sleep(cfg.SuspendFor)
				// After a suspension, restart the recent window.
				avg = stats.NewExpAvg(0.3)
				recentTimes = recentTimes[:0]
			}
		}
		if len(recentTimes) >= 5 {
			_, _, res.SignTestP = stats.SignTest(recentTimes, baseTimes[:len(recentTimes)])
		} else {
			res.SignTestP = 1
		}
	})
	e.Run()
	return res
}
