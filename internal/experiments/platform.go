package experiments

import (
	"fmt"

	"graybox/internal/simos"
)

// newSystem builds a machine of the given personality at the given
// scale, keeping the paper's kernel-reserve and cache-floor proportions.
func newSystem(p simos.Personality, sc Scale, seed uint64) *simos.System {
	return trackSystem(buildSystem(p, sc, seed))
}

// buildSystem is newSystem without harness tracking. Snapshot bases use
// it directly: the base machine never runs a trial, so it must not be
// registered with telemetry, audit, or virtual-time accounting.
func buildSystem(p simos.Personality, sc Scale, seed uint64) *simos.System {
	return buildSystemCPUs(p, sc, seed, 0)
}

// newMultiDiskSystem is newSystem with extra data disks (Figure 7).
func newMultiDiskSystem(p simos.Personality, sc Scale, seed uint64, disks int) *simos.System {
	kernel := sc.MemoryMB * 66 / 896
	if kernel < 4 {
		kernel = 4
	}
	floor := sc.MemoryMB * 4 / 896
	if floor < 1 {
		floor = 1
	}
	return trackSystem(simos.New(simos.Config{
		Personality:  p,
		Seed:         seed,
		MemoryMB:     sc.MemoryMB,
		KernelMB:     kernel,
		CacheFloorMB: floor,
		NumDisks:     disks,
	}))
}

// usableMB returns the frame-pool capacity in MB (the upper bound on a
// unified file cache).
func usableMB(s *simos.System) int64 {
	return int64(s.Pool.Capacity()) * int64(s.PageSize()) / simos.MB
}

// netbsdCacheMB returns the fixed cache size newSystem configures for a
// NetBSD machine at this scale.
func (sc Scale) netbsdCacheMB() int64 {
	v := int64(sc.MemoryMB * 64 / 896)
	if v < 2 {
		v = 2
	}
	return v
}

// mustRun runs body as a process and panics on failure (harness code).
func mustRun(s *simos.System, name string, body func(os *simos.OS)) {
	if err := s.Run(name, body); err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", name, err))
	}
}

// mustNoErr panics on harness errors.
func mustNoErr(err error) {
	if err != nil {
		panic(err)
	}
}
