package experiments

import (
	"fmt"

	"graybox/internal/simos"
)

// machine returns the configuration of a machine of the given
// personality at this scale: the paper's 896 MB testbed with its kernel
// reserve, cache floor and NetBSD fixed cache shrunk in proportion.
func (sc Scale) machine(p simos.Personality, seed uint64) simos.Config {
	return simos.Config{
		Personality:   p,
		Seed:          seed,
		MemoryMB:      sc.MemoryMB,
		KernelMB:      max(sc.MemoryMB*66/896, 4),
		CacheFloorMB:  max(sc.MemoryMB*4/896, 1),
		NetBSDCacheMB: max(sc.MemoryMB*64/896, 2),
	}
}

// newSystem builds a machine of the given personality at the given
// scale.
func newSystem(p simos.Personality, sc Scale, seed uint64) *simos.System {
	return trackSystem(buildSystem(p, sc, seed))
}

// buildSystem is newSystem without harness tracking. Snapshot bases use
// it directly: the base machine never runs a trial, so it must not be
// registered with telemetry, audit, or virtual-time accounting.
func buildSystem(p simos.Personality, sc Scale, seed uint64) *simos.System {
	return simos.New(sc.machine(p, seed))
}

// newMultiDiskSystem is newSystem with extra data disks (Figure 7).
func newMultiDiskSystem(p simos.Personality, sc Scale, seed uint64, disks int) *simos.System {
	cfg := sc.machine(p, seed)
	cfg.NumDisks = disks
	return trackSystem(simos.New(cfg))
}

// usableMB returns the frame-pool capacity in MB (the upper bound on a
// unified file cache).
func usableMB(s *simos.System) int64 {
	return int64(s.Pool.Capacity()) * int64(s.PageSize()) / simos.MB
}

// netbsdCacheMB returns the fixed cache size of a NetBSD machine at this
// scale.
func (sc Scale) netbsdCacheMB() int64 {
	return int64(sc.machine(simos.NetBSD15, 0).NetBSDCacheMB)
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
