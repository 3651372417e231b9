package simos

import (
	"graybox/internal/fs"
	"graybox/internal/sim"
	"graybox/internal/vm"
)

// OS is the system-call facade bound to one simulated process. It is the
// complete gray-box surface: ICLs and applications may use these calls
// and nothing else. Internal state (cache contents, page residency, disk
// layout) is reachable only through timing — the covert channel the
// paper's techniques exploit.
type OS struct {
	sys   *System
	p     *sim.Proc
	space *vm.AddrSpace
}

// Spawn starts a simulated process whose body receives its OS handle.
func (s *System) Spawn(name string, delay sim.Time, body func(os *OS)) *sim.Proc {
	return s.Engine.Spawn(name, delay, func(p *sim.Proc) {
		o := &OS{sys: s, p: p, space: s.VM.NewSpace()}
		defer o.space.Release()
		body(o)
	})
}

// Run starts a process immediately and drives the simulation until all
// events drain. It is the common entry point for single-process
// experiments.
func (s *System) Run(name string, body func(os *OS)) error {
	p := s.Spawn(name, 0, body)
	s.Engine.Run()
	return p.Err()
}

// Proc exposes the underlying process (for coordination primitives).
func (o *OS) Proc() *sim.Proc { return o.p }

// System returns the machine this process runs on (harness escapes only;
// gray-box code must not touch it).
func (o *OS) System() *System { return o.sys }

// Now returns the current time — the cheap, high-resolution timer of the
// gray toolbox (rdtsc-style, no syscall overhead charged).
func (o *OS) Now() sim.Time { return o.p.Now() }

// Sleep blocks the process for d.
func (o *OS) Sleep(d sim.Time) { o.p.Sleep(d) }

// Compute charges d of CPU time (application work such as string
// matching or key comparison). With Config.CPUs unset this is a pure
// timer — concurrent bursts overlap as if every process had its own
// processor; with CPUs >= 1 the burst contends for a simulated CPU
// through the scheduler's run queues.
func (o *OS) Compute(d sim.Time) {
	if d > 0 {
		o.p.Compute(d)
	}
}

// PageSize returns the system page size. (Exposed by real systems via
// getpagesize(2), so gray-box code may rely on it.)
func (o *OS) PageSize() int { return o.sys.PageSize() }

// --- file system calls ---

// Fd is an open file descriptor.
type Fd struct {
	os   *OS
	file *fs.File
}

// Open opens an existing file.
func (o *OS) Open(path string) (*Fd, error) {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysOpen, o.sysEnter(sysOpen))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return nil, err
	}
	file, err := f.Open(o.p, rel)
	if err != nil {
		return nil, err
	}
	return &Fd{os: o, file: file}, nil
}

// Create creates a new file.
func (o *OS) Create(path string) (*Fd, error) {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysCreate, o.sysEnter(sysCreate))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return nil, err
	}
	file, err := f.Create(o.p, rel)
	if err != nil {
		return nil, err
	}
	return &Fd{os: o, file: file}, nil
}

// Size returns the file's length in bytes.
func (fd *Fd) Size() int64 { return fd.file.Size() }

// Path returns the path the descriptor was opened with.
func (fd *Fd) Path() string { return fd.file.Path() }

// Ino returns the file's inode number (also available via Stat).
func (fd *Fd) Ino() int64 { return int64(fd.file.Ino()) }

// Read reads n bytes at offset off.
func (fd *Fd) Read(off, n int64) error {
	if o := fd.os; o.sys.sysTel != nil {
		defer o.sysExit(sysRead, o.sysEnter(sysRead))
	}
	return fd.file.Read(fd.os.p, off, n)
}

// ReadByteAt reads one byte at off — the FCCD probe primitive.
func (fd *Fd) ReadByteAt(off int64) error {
	if o := fd.os; o.sys.sysTel != nil {
		defer o.sysExit(sysReadByte, o.sysEnter(sysReadByte))
	}
	return fd.file.ReadByteAt(fd.os.p, off)
}

// Write writes n bytes at offset off, extending the file as needed.
func (fd *Fd) Write(off, n int64) error {
	if o := fd.os; o.sys.sysTel != nil {
		defer o.sysExit(sysWrite, o.sysEnter(sysWrite))
	}
	return fd.file.Write(fd.os.p, off, n)
}

// Mkdir creates a directory.
func (o *OS) Mkdir(path string) error {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysMkdir, o.sysEnter(sysMkdir))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return err
	}
	return f.Mkdir(o.p, rel)
}

// Stat returns file metadata — the FLDC probe.
func (o *OS) Stat(path string) (fs.Stat, error) {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysStat, o.sysEnter(sysStat))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return fs.Stat{}, err
	}
	return f.Stat(o.p, rel)
}

// Utimes sets access/modification times.
func (o *OS) Utimes(path string, atime, mtime sim.Time) error {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysUtimes, o.sysEnter(sysUtimes))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return err
	}
	return f.Utimes(o.p, rel, atime, mtime)
}

// Readdir lists a directory's file names, sorted.
func (o *OS) Readdir(path string) ([]string, error) {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysReaddir, o.sysEnter(sysReaddir))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return nil, err
	}
	return f.Readdir(o.p, rel)
}

// ReaddirDirs lists a directory's subdirectory names, sorted.
func (o *OS) ReaddirDirs(path string) ([]string, error) {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysReaddir, o.sysEnter(sysReaddir))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return nil, err
	}
	return f.ReaddirDirs(o.p, rel)
}

// Unlink removes a file.
func (o *OS) Unlink(path string) error {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysUnlink, o.sysEnter(sysUnlink))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return err
	}
	return f.Unlink(o.p, rel)
}

// Rmdir removes an empty directory.
func (o *OS) Rmdir(path string) error {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysRmdir, o.sysEnter(sysRmdir))
	}
	f, rel, err := o.sys.resolve(path)
	if err != nil {
		return err
	}
	return f.Rmdir(o.p, rel)
}

// Rename moves a file or directory within one file system.
func (o *OS) Rename(oldPath, newPath string) error {
	if o.sys.sysTel != nil {
		defer o.sysExit(sysRename, o.sysEnter(sysRename))
	}
	f1, rel1, err := o.sys.resolve(oldPath)
	if err != nil {
		return err
	}
	f2, rel2, err := o.sys.resolve(newPath)
	if err != nil {
		return err
	}
	if f1 != f2 {
		return errCrossDevice
	}
	return f1.Rename(o.p, rel1, rel2)
}

var errCrossDevice = crossDeviceError{}

type crossDeviceError struct{}

func (crossDeviceError) Error() string { return "simos: cross-device rename" }

// --- memory calls ---

// MemRegion names an anonymous allocation (a malloc'd arena).
type MemRegion struct {
	id    vm.RegionID
	pages int64
}

// Pages returns the region's size in pages.
func (m MemRegion) Pages() int64 { return m.pages }

// Malloc reserves bytes of anonymous memory (lazily faulted, like
// malloc + demand zero).
func (o *OS) Malloc(bytes int64) MemRegion {
	ps := int64(o.sys.PageSize())
	npages := (bytes + ps - 1) / ps
	if npages == 0 {
		npages = 1
	}
	return MemRegion{id: o.space.Alloc(npages), pages: npages}
}

// MallocPages reserves npages of anonymous memory.
func (o *OS) MallocPages(npages int64) MemRegion {
	return MemRegion{id: o.space.Alloc(npages), pages: npages}
}

// Free releases a region.
func (o *OS) Free(m MemRegion) { o.space.Free(m.id) }

// Touch accesses one page of a region (write forces residency). Touch is
// metrics-only telemetry (latency histogram, no span): MAC probes it in
// tight loops where a span per page would swamp the span log.
func (o *OS) Touch(m MemRegion, page int64, write bool) {
	if t := o.sys.sysTel; t != nil {
		start := o.p.Now()
		o.space.Touch(o.p, m.id, page, write)
		t.hist[sysTouch].Observe(int64(o.p.Now() - start))
		return
	}
	o.space.Touch(o.p, m.id, page, write)
}

// TouchRange touches pages [from, to) of a region in order.
func (o *OS) TouchRange(m MemRegion, from, to int64, write bool) {
	for pg := from; pg < to; pg++ {
		o.Touch(m, pg, write)
	}
}

// ResidentPages reports how many pages of m are resident — ground truth
// for harness validation only (Linux exposes mincore-like data, but the
// paper's MAC deliberately avoids relying on it; see Section 4.3.1).
func (o *OS) ResidentPages(m MemRegion) int { return o.space.ResidentIn(m.id) }
