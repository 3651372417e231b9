// Package simos assembles the substrate packages into a simulated
// operating system — the gray box. It provides the only interface the
// ICLs are allowed to use: a per-process system-call facade (OS) whose
// every operation charges realistic virtual time, plus harness-only
// introspection for experiment ground truth.
//
// Three personalities reproduce the platforms of Section 4:
//
//	Linux22  — unified page cache (clock replacement) sharing physical
//	           memory with anonymous pages; the cache shrinks before the
//	           VM swaps.
//	NetBSD15 — fixed 64 MB buffer cache with strict LRU, separate from
//	           anonymous memory (the pre-UVM design the paper observed).
//	Solaris7 — unified cache with the scan-resistant "hold-first"
//	           behavior the paper measured (early residents are very
//	           hard to dislodge).
package simos

import (
	"fmt"
	"strings"

	"graybox/internal/audit"
	"graybox/internal/cache"
	"graybox/internal/disk"
	"graybox/internal/fs"
	"graybox/internal/mem"
	"graybox/internal/sim"
	"graybox/internal/telemetry"
	"graybox/internal/vm"
)

// Personality selects which platform's cache/VM behavior to model.
type Personality string

// The three platforms of the paper's evaluation.
const (
	Linux22  Personality = "linux22"
	NetBSD15 Personality = "netbsd15"
	Solaris7 Personality = "solaris7"
)

// MB is one binary megabyte.
const MB = 1 << 20

// Config describes a simulated machine.
type Config struct {
	Personality Personality
	Seed        uint64

	// MemoryMB is physical memory (default 896, the paper's machine);
	// KernelMB is reserved for the kernel (default 66, leaving the
	// ~830 MB the paper reports available).
	MemoryMB int
	KernelMB int

	// NumDisks is the number of data disks (default 1). A dedicated swap
	// disk is always added, mirroring the paper's Figure 7 setup where
	// the fifth disk is used only for paging.
	NumDisks int

	// CPUs selects the simulated-processor count. 0 (the default) keeps
	// the uncontended infinite-core model every pre-scheduler experiment
	// was measured under: Compute is a pure timer and concurrent CPU
	// bursts overlap freely. >= 1 engages the SMP scheduler: computing
	// processes contend for CPUs through per-CPU run queues with
	// round-robin timeslicing (sim.SetCPUs).
	CPUs int
	// CPUQuantum is the round-robin timeslice when CPUs >= 1
	// (default sim.DefaultQuantum, 10ms).
	CPUQuantum sim.Time

	// NetBSDCacheMB overrides the fixed cache size for NetBSD15
	// (default 64).
	NetBSDCacheMB int

	// CacheFloorMB is the residency the unified cache defends under
	// memory pressure (default 4).
	CacheFloorMB int

	// MaxDirtyFrac throttles writers once this fraction of memory is
	// dirty (default 0.10).
	MaxDirtyFrac float64

	// TierDisk, when non-nil, adds one more data disk with its own
	// geometry after the NumDisks uniform ones — the fast half of a
	// fast/slow tier pair (e.g. disk.FastParams() next to the default
	// slow disks). It mounts as /mnt<NumDisks>/ with its own file
	// system. Its BlockSize must equal Disk.BlockSize: all file systems
	// share one cache namespace and page size.
	TierDisk *disk.Params

	Disk disk.Params
	FS   fs.Config
	VM   vm.Config
}

func (c Config) withDefaults() Config {
	if c.Personality == "" {
		c.Personality = Linux22
	}
	if c.MemoryMB == 0 {
		c.MemoryMB = 896
	}
	if c.KernelMB == 0 {
		c.KernelMB = 66
	}
	if c.NumDisks == 0 {
		c.NumDisks = 1
	}
	if c.NetBSDCacheMB == 0 {
		c.NetBSDCacheMB = 64
	}
	if c.CacheFloorMB == 0 {
		c.CacheFloorMB = 4
	}
	if c.MaxDirtyFrac == 0 {
		c.MaxDirtyFrac = 0.10
	}
	if c.Disk.BlockSize == 0 {
		c.Disk = disk.DefaultParams()
	}
	if c.FS.GroupCylinders == 0 {
		c.FS = fs.DefaultConfig()
	}
	if c.VM.TouchResident == 0 {
		c.VM = vm.DefaultConfig()
	}
	return c
}

// System is one simulated machine.
type System struct {
	Engine *sim.Engine
	Pool   *mem.Pool
	Cache  *cache.Cache
	VM     *vm.VM

	cfg       Config
	dataDisks []*disk.Disk
	swapDisk  *disk.Disk
	fss       []*fs.FS

	// Telemetry state; nil (disabled, zero-cost) until EnableTelemetry.
	tel    *telemetry.Registry
	sysTel *sysTel

	// Audit state; nil (disabled, zero-cost) until EnableAudit.
	aud *audit.Auditor
}

// New builds a machine with the given configuration.
func New(cfg Config) *System {
	cfg = cfg.withDefaults()
	e := sim.NewEngine(cfg.Seed)
	if cfg.CPUs > 0 {
		e.SetCPUs(cfg.CPUs, cfg.CPUQuantum)
	}
	pageSize := cfg.Disk.BlockSize
	frames := cfg.MemoryMB * MB / pageSize
	kernelFrames := cfg.KernelMB * MB / pageSize
	pool := mem.NewPool(frames - kernelFrames)

	s := &System{Engine: e, Pool: pool, cfg: cfg}
	for i := 0; i < cfg.NumDisks; i++ {
		s.dataDisks = append(s.dataDisks, disk.New(e, cfg.Disk))
	}
	if cfg.TierDisk != nil {
		if cfg.TierDisk.BlockSize != cfg.Disk.BlockSize {
			panic(fmt.Sprintf("simos: tier disk block size %d != %d (one cache page size per machine)",
				cfg.TierDisk.BlockSize, cfg.Disk.BlockSize))
		}
		s.dataDisks = append(s.dataDisks, disk.New(e, *cfg.TierDisk))
	}
	s.swapDisk = disk.New(e, cfg.Disk)

	maxDirty := int(float64(pool.Capacity()) * cfg.MaxDirtyFrac)
	switch cfg.Personality {
	case NetBSD15:
		s.Cache = cache.New(cache.Config{
			Capacity: cfg.NetBSDCacheMB * MB / pageSize,
			MaxDirty: maxDirty,
		}, cache.LRU, nil)
	case Solaris7:
		s.Cache = cache.New(cache.Config{
			FloorPages: cfg.CacheFloorMB * MB / pageSize,
			MaxDirty:   maxDirty,
		}, cache.HoldFirst, pool)
	case Linux22:
		s.Cache = cache.New(cache.Config{
			FloorPages: cfg.CacheFloorMB * MB / pageSize,
			MaxDirty:   maxDirty,
		}, cache.Clock, pool)
	default:
		panic(fmt.Sprintf("simos: unknown personality %q", cfg.Personality))
	}

	s.VM = vm.New(pool, s.swapDisk, 0, cfg.VM)
	// Reclaim order: squeeze the (clean-page-rich) file cache before
	// swapping anonymous memory.
	if cfg.Personality != NetBSD15 {
		pool.AddShrinker(s.Cache)
	}
	pool.AddShrinker(s.VM)

	for i, d := range s.dataDisks {
		fsCfg := cfg.FS
		fsCfg.InoBase = fs.Ino(int64(i) << 40)
		s.fss = append(s.fss, fs.New(e, d, s.Cache, fsCfg))
	}
	return s
}

// Personality returns which platform this system models.
func (s *System) Personality() Personality { return s.cfg.Personality }

// CPUs returns the simulated-processor count (0 = the uncontended
// infinite-core model).
func (s *System) CPUs() int { return s.Engine.CPUs() }

// PageSize returns the VM/file page size in bytes.
func (s *System) PageSize() int { return s.cfg.Disk.BlockSize }

// NumDisks returns the number of data disks.
func (s *System) NumDisks() int { return len(s.dataDisks) }

// FS returns the file system on data disk i (harness use; applications
// and ICLs go through OS paths).
func (s *System) FS(i int) *fs.FS { return s.fss[i] }

// SwapDisk returns the paging disk (harness use).
func (s *System) SwapDisk() *disk.Disk { return s.swapDisk }

// DataDisk returns data disk i (harness use).
func (s *System) DataDisk(i int) *disk.Disk { return s.dataDisks[i] }

// resolve maps a path to its file system. Paths beginning with "/mntN/"
// live on data disk N; everything else lives on disk 0.
func (s *System) resolve(path string) (*fs.FS, string, error) {
	trimmed := strings.TrimPrefix(path, "/")
	if rest, ok := strings.CutPrefix(trimmed, "mnt"); ok {
		if i := strings.IndexByte(rest, '/'); i > 0 {
			var n int
			if _, err := fmt.Sscanf(rest[:i], "%d", &n); err == nil {
				if n < 0 || n >= len(s.fss) {
					return nil, "", fmt.Errorf("simos: no such mount in %q", path)
				}
				return s.fss[n], rest[i+1:], nil
			}
		}
	}
	return s.fss[0], trimmed, nil
}

// DropCaches instantly empties the file cache (the experimenter's
// "flush the file cache" step between runs — harness only).
func (s *System) DropCaches() { s.Cache.Drop() }

// AvailableMB estimates memory available to applications: free frames
// plus reclaimable cache above its floor (ground truth for validating
// MAC; an ICL cannot call this).
func (s *System) AvailableMB() int {
	return int(s.availablePages()) * s.PageSize() / MB
}

// availablePages is the page-granular ground truth behind AvailableMB
// (shared with the audit oracle).
func (s *System) availablePages() int64 {
	pages := s.Pool.Free()
	if s.cfg.Personality != NetBSD15 {
		reclaimable := s.Cache.Held() - s.Cache.Floor()
		if reclaimable > 0 {
			pages += reclaimable
		}
	}
	return int64(pages)
}
