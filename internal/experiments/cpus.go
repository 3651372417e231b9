package experiments

import (
	"fmt"

	"graybox/internal/simos"
)

// The cpus dimension of the noise and slo sweeps. Each entry is a
// simulated-processor count for one pass over the sweep's arms: 0 is
// the uncontended infinite-core model every pre-scheduler experiment
// was measured under (and the only entry by default, so sweep output is
// byte-unchanged unless a list is set); >= 1 engages the SMP scheduler
// and the sweep's CPU-burning workload variants, so the same offered
// load is also contended for processors.

// cpuList is the process-wide -cpus selection; empty means the default
// model only.
var cpuList []int

// SetCPUList selects the simulated-processor counts the noise and slo
// sweeps iterate (the CLI's -cpus flag). Entries must be >= 0; nil
// restores the default ([0], the uncontended model).
func SetCPUList(cpus []int) error {
	for _, n := range cpus {
		if n < 0 {
			return fmt.Errorf("negative cpu count %d", n)
		}
	}
	cpuList = append([]int(nil), cpus...)
	return nil
}

// CPUList returns the current -cpus selection, defaulting to the
// uncontended model only.
func CPUList() []int {
	if len(cpuList) > 0 {
		return append([]int(nil), cpuList...)
	}
	return []int{0}
}

// cpuSweepActive reports whether list departs from the default single
// uncontended pass — the gate for the conditional "cpus" table column
// (absent by default, so existing output stays byte-identical).
func cpuSweepActive(list []int) bool {
	return len(list) != 1 || list[0] != 0
}

// buildSystemCPUs is buildSystem with a simulated-processor count.
func buildSystemCPUs(p simos.Personality, sc Scale, seed uint64, cpus int) *simos.System {
	cfg := sc.machine(p, seed)
	cfg.CPUs = cpus
	return simos.New(cfg)
}
