// Package fs implements an FFS-like file system on the simulated disk:
// cylinder groups containing an inode table and a data area, lowest-free
// inode allocation (so i-number order matches creation order in a fresh
// directory), and first-fit data-block allocation (so creation order
// matches layout order until aging fragments the free space).
//
// These are exactly the algorithmic properties the paper's FLDC layer
// assumes as gray-box knowledge (Section 4.2.1): "for a clean file
// system, when small files are created in the same directory, it is
// likely that their creation order matches their data-block layout".
//
// The file system stores metadata only (sizes, block maps, timestamps) —
// applications in this repository are modeled by their access patterns,
// not their byte contents.
package fs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"graybox/internal/cache"
	"graybox/internal/disk"
	"graybox/internal/sim"
)

// Ino is an inode number. The paper's FLDC obtains it via stat().
type Ino int64

// AllocPolicy selects the data-block allocator.
type AllocPolicy int

const (
	// AllocFFS is first-fit within the file's cylinder group, spilling
	// into later groups.
	AllocFFS AllocPolicy = iota
	// AllocLFS appends at a global log rotor (an LFS-flavored extension:
	// writes near in time end up near in space).
	AllocLFS
)

// Config sets file system geometry and per-operation CPU costs.
type Config struct {
	GroupCylinders int // cylinders per cylinder group
	InodesPerGroup int
	// InoBase offsets all inode numbers, letting several file systems
	// (one per disk) share a single buffer cache namespace.
	InoBase    Ino
	MaxCluster int // max pages per disk transfer
	Alloc      AllocPolicy

	// Costs (virtual time charged to the calling process).
	SyscallOverhead sim.Time // entering/leaving the kernel
	PageCopy        sim.Time // copying one cached page to user space
	ByteCopy        sim.Time // copying a single probed byte
	DirentCost      sim.Time // per directory entry scanned
}

// DefaultConfig matches the experimental platform description.
func DefaultConfig() Config {
	return Config{
		GroupCylinders:  16,
		InodesPerGroup:  2048,
		MaxCluster:      32, // 128 KB transfers
		SyscallOverhead: 2 * sim.Microsecond,
		PageCopy:        10 * sim.Microsecond, // ~400 MB/s copy rate
		ByteCopy:        500 * sim.Nanosecond,
		DirentCost:      200 * sim.Nanosecond,
	}
}

// Stat is the result of a stat() probe.
type Stat struct {
	Ino   Ino
	Size  int64
	Atime sim.Time
	Mtime sim.Time
	Ctime sim.Time
}

// Inode holds file metadata and the block map.
type Inode struct {
	ino    Ino
	size   int64
	blocks []int64 // disk block of each page
	atime  sim.Time
	mtime  sim.Time
	ctime  sim.Time
}

// Dir is an in-memory directory node.
type dir struct {
	group   int
	entries map[string]Ino
	subdirs map[string]*dir
}

func newDir(group int) *dir {
	return &dir{group: group, entries: make(map[string]Ino), subdirs: make(map[string]*dir)}
}

// A group's block bitmap stays nil, meaning every block is free, until
// the group first allocates a block, and its inode map until it first
// allocates an inode: a file system touches few of its groups, and
// every fork builds a fresh file system.
type group struct {
	id         int
	inodeStart int64 // disk block of the inode table
	inodeBlks  int64
	dataStart  int64
	dataBlocks int64
	used       []uint64 // data-block bitmap from dataStart; a set bit is in use
	nfree      int64
	rotor      int64    // next-fit allocation position (FFS-style)
	inodeMap   []uint64 // inode bitmap; a set bit is in use
	inodesUsed int
}

// FS is the simulated file system.
type FS struct {
	e   *sim.Engine
	d   *disk.Disk
	c   *cache.Cache
	cfg Config

	pageSize     int
	groups       []group
	inodes       map[Ino]*Inode
	root         *dir
	lfsRotor     int64
	nextDirGroup int

	// Stats for experiments.
	StatCalls int64
}

const inodesPerBlock = 64 // 64-byte on-disk inodes in 4 KB blocks

// New creates an empty file system spanning the whole disk.
func New(e *sim.Engine, d *disk.Disk, c *cache.Cache, cfg Config) *FS {
	if cfg.GroupCylinders <= 0 || cfg.InodesPerGroup <= 0 {
		panic("fs: invalid geometry")
	}
	if cfg.MaxCluster <= 0 {
		cfg.MaxCluster = 32
	}
	dp := d.Params()
	blocksPerCyl := int64(dp.BlocksPerTrack * dp.TracksPerCyl)
	blocksPerGroup := blocksPerCyl * int64(cfg.GroupCylinders)
	ngroups := int(int64(dp.Cylinders) / int64(cfg.GroupCylinders))
	if ngroups == 0 {
		panic("fs: disk smaller than one cylinder group")
	}
	fs := &FS{
		e: e, d: d, c: c, cfg: cfg,
		pageSize: dp.BlockSize,
		inodes:   make(map[Ino]*Inode),
		root:     newDir(0),
	}
	inodeBlks := int64((cfg.InodesPerGroup + inodesPerBlock - 1) / inodesPerBlock)
	fs.groups = make([]group, ngroups)
	for g := range fs.groups {
		start := int64(g) * blocksPerGroup
		dataBlocks := blocksPerGroup - inodeBlks
		fs.groups[g] = group{
			id:         g,
			inodeStart: start,
			inodeBlks:  inodeBlks,
			dataStart:  start + inodeBlks,
			dataBlocks: dataBlocks,
			nfree:      dataBlocks,
		}
	}
	return fs
}

// PageSize returns the file system page size in bytes.
func (fs *FS) PageSize() int { return fs.pageSize }

// Cache returns the underlying buffer cache (harness use only).
func (fs *FS) Cache() *cache.Cache { return fs.c }

// Disk returns the underlying disk (harness use only).
func (fs *FS) Disk() *disk.Disk { return fs.d }

// --- path resolution ---

// Path resolution walks '/'-separated segments in place via IndexByte
// rather than strings.Split: every fs call resolves a path, and the
// split's parts slice was a per-operation allocation on otherwise
// allocation-free hot paths (FirstBlockOf, cached Open/Stat).

// lookupDir resolves a directory path.
func (fs *FS) lookupDir(path string) (*dir, error) {
	d := fs.root
	rest := strings.Trim(path, "/")
	for rest != "" {
		part := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		sub, ok := d.subdirs[part]
		if !ok {
			return nil, fmt.Errorf("fs: no such directory: %q", path)
		}
		d = sub
	}
	return d, nil
}

// lookupParent resolves the parent directory and leaf name of path.
func (fs *FS) lookupParent(path string) (*dir, string, error) {
	rest := strings.Trim(path, "/")
	if rest == "" {
		return nil, "", fmt.Errorf("fs: empty path")
	}
	d := fs.root
	for {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			return d, rest, nil
		}
		sub, ok := d.subdirs[rest[:i]]
		if !ok {
			return nil, "", fmt.Errorf("fs: no such directory in %q", path)
		}
		d = sub
		rest = rest[i+1:]
	}
}

// --- inode numbering ---

func (fs *FS) inoOf(g, idx int) Ino { return fs.cfg.InoBase + Ino(g*fs.cfg.InodesPerGroup+idx+1) }

func (fs *FS) groupOfIno(ino Ino) (g int, idx int) {
	v := int(ino - fs.cfg.InoBase - 1)
	return v / fs.cfg.InodesPerGroup, v % fs.cfg.InodesPerGroup
}

// inodeBlock returns the disk block holding ino's on-disk inode, for
// charging stat() I/O.
func (fs *FS) inodeBlock(ino Ino) (int64, cache.PageID) {
	g, idx := fs.groupOfIno(ino)
	blk := fs.groups[g].inodeStart + int64(idx/inodesPerBlock)
	// Inode-table pages live in the same cache namespace under a
	// reserved negative ino per group (offset by InoBase so separate
	// file systems stay disjoint).
	id := cache.PageID{Ino: int64(-1 - fs.cfg.InoBase - Ino(g)), Index: int64(idx / inodesPerBlock)}
	return blk, id
}

// allocInode takes the lowest free inode in group g (spilling to later
// groups when full), giving ascending i-numbers for successive creations.
// The lowest free bit of a group that is not full lies below
// InodesPerGroup, so the unused tail of the last word is never taken.
func (fs *FS) allocInode(g int) (Ino, error) {
	for off := 0; off < len(fs.groups); off++ {
		gr := &fs.groups[(g+off)%len(fs.groups)]
		if gr.inodesUsed >= fs.cfg.InodesPerGroup {
			continue
		}
		if gr.inodeMap == nil {
			gr.inodeMap = make([]uint64, (fs.cfg.InodesPerGroup+63)/64)
		}
		for w, word := range gr.inodeMap {
			if word != ^uint64(0) {
				bit := bits.TrailingZeros64(^word)
				gr.inodeMap[w] |= 1 << bit
				gr.inodesUsed++
				return fs.inoOf(gr.id, w*64+bit), nil
			}
		}
	}
	return 0, fmt.Errorf("fs: out of inodes")
}

func (fs *FS) freeInode(ino Ino) {
	g, idx := fs.groupOfIno(ino)
	gr := &fs.groups[g]
	if gr.inodeMap == nil || gr.inodeMap[idx>>6]&(1<<(idx&63)) == 0 {
		panic(fmt.Sprintf("fs: double free of inode %d", ino))
	}
	gr.inodeMap[idx>>6] &^= 1 << (idx & 63)
	gr.inodesUsed--
}

// --- block allocation ---

// isFree reports whether data block idx of the group is free.
func (gr *group) isFree(idx int64) bool { return gr.used == nil || gr.used[idx>>6]&(1<<(idx&63)) == 0 }

// take marks free data block idx in use.
func (gr *group) take(idx int64) {
	if gr.used == nil {
		gr.used = make([]uint64, (gr.dataBlocks+63)/64)
	}
	gr.used[idx>>6] |= 1 << (idx & 63)
	gr.nfree--
}

// release marks used data block idx free.
func (gr *group) release(idx int64) {
	gr.used[idx>>6] &^= 1 << (idx & 63)
	gr.nfree++
}

// allocBlocks allocates n data blocks for a file whose directory lives in
// group g. FFS policy: first-fit from the start of the group so that
// freed holes are reused (which is what ages the layout); spill into
// subsequent groups.
func (fs *FS) allocBlocks(g int, n int64) ([]int64, error) {
	out := make([]int64, 0, n)
	switch fs.cfg.Alloc {
	case AllocLFS:
		total := int64(0)
		for i := range fs.groups {
			total += fs.groups[i].nfree
		}
		if total < n {
			return nil, fmt.Errorf("fs: out of space")
		}
		span := fs.groups[len(fs.groups)-1].dataStart + fs.groups[len(fs.groups)-1].dataBlocks
		for int64(len(out)) < n {
			blk := fs.lfsRotor
			fs.lfsRotor = (fs.lfsRotor + 1) % span
			if gr, idx := fs.groupForBlock(blk); gr != nil && gr.isFree(idx) {
				gr.take(idx)
				out = append(out, blk)
			}
		}
		return out, nil
	default:
		// FFS-style next-fit: each group allocates starting from a rotor
		// at its most recent allocation, wrapping around. This is what
		// makes creation order match layout order in a fresh group, and
		// what decouples reused i-numbers from reused holes as the file
		// system ages.
		for off := 0; off < len(fs.groups) && int64(len(out)) < n; off++ {
			gr := &fs.groups[(g+off)%len(fs.groups)]
			if gr.nfree == 0 {
				continue
			}
			start := gr.rotor
			for i := int64(0); i < gr.dataBlocks && int64(len(out)) < n; i++ {
				idx := (start + i) % gr.dataBlocks
				if gr.isFree(idx) {
					gr.take(idx)
					gr.rotor = (idx + 1) % gr.dataBlocks
					out = append(out, gr.dataStart+idx)
				}
			}
		}
		if int64(len(out)) < n {
			fs.freeBlocks(out)
			return nil, fmt.Errorf("fs: out of space")
		}
		return out, nil
	}
}

func (fs *FS) groupForBlock(blk int64) (*group, int64) {
	for i := range fs.groups {
		gr := &fs.groups[i]
		if blk >= gr.dataStart && blk < gr.dataStart+gr.dataBlocks {
			return gr, blk - gr.dataStart
		}
	}
	return nil, 0
}

func (fs *FS) freeBlocks(blocks []int64) {
	for _, blk := range blocks {
		gr, idx := fs.groupForBlock(blk)
		if gr == nil {
			panic(fmt.Sprintf("fs: freeing metadata block %d", blk))
		}
		if gr.isFree(idx) {
			panic(fmt.Sprintf("fs: double free of block %d", blk))
		}
		gr.release(idx)
	}
}

// FreeSpace returns the number of free data blocks.
func (fs *FS) FreeSpace() int64 {
	var n int64
	for i := range fs.groups {
		n += fs.groups[i].nfree
	}
	return n
}

// sortedNames returns directory entry names in sorted order for
// deterministic iteration.
func sortedNames[M ~map[string]V, V any](m M) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
