package fs

import (
	"fmt"

	"graybox/internal/cache"
	"graybox/internal/sim"
)

// File is an open file handle.
type File struct {
	fs   *FS
	node *Inode
	path string
}

// Size returns the current file size in bytes.
func (f *File) Size() int64 { return f.node.size }

// Path returns the path the file was opened with.
func (f *File) Path() string { return f.path }

// Ino returns the file's inode number.
func (f *File) Ino() Ino { return f.node.ino }

// Mkdir creates a directory (parents must exist).
func (fs *FS) Mkdir(p *sim.Proc, path string) error {
	fs.charge(p, fs.cfg.SyscallOverhead)
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return err
	}
	if _, ok := parent.subdirs[name]; ok {
		return fmt.Errorf("fs: mkdir %q: exists", path)
	}
	if _, ok := parent.entries[name]; ok {
		return fmt.Errorf("fs: mkdir %q: file exists", path)
	}
	// Rotate new directories across cylinder groups, as FFS does, so
	// that per-directory locality means something.
	fs.nextDirGroup = (fs.nextDirGroup + 1) % len(fs.groups)
	parent.subdirs[name] = newDir(fs.nextDirGroup)
	return nil
}

func (fs *FS) charge(p *sim.Proc, d sim.Time) {
	if p != nil && d > 0 {
		p.Sleep(d)
	}
}

// Create makes an empty file and returns its handle. The new inode is
// dirtied in the cache (metadata write-behind).
func (fs *FS) Create(p *sim.Proc, path string) (*File, error) {
	fs.charge(p, fs.cfg.SyscallOverhead)
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return nil, err
	}
	if _, ok := parent.entries[name]; ok {
		return nil, fmt.Errorf("fs: create %q: exists", path)
	}
	if _, ok := parent.subdirs[name]; ok {
		return nil, fmt.Errorf("fs: create %q: is a directory", path)
	}
	ino, err := fs.allocInode(parent.group)
	if err != nil {
		return nil, err
	}
	now := fs.e.Now()
	node := &Inode{ino: ino, atime: now, mtime: now, ctime: now, nlink: 1}
	fs.inodes[ino] = node
	parent.entries[name] = ino
	fs.touchInodeBlock(p, ino, true)
	return &File{fs: fs, node: node, path: path}, nil
}

// CreateSized is a harness fixture builder: it creates a file of the
// given size with blocks allocated through the normal allocator but
// charges no virtual time and performs no I/O. Use it to lay out
// experiment inputs "instantly" before measurement begins. A file that
// does not fit fails before anything is created.
func (fs *FS) CreateSized(path string, size int64) (*File, error) {
	npages := (size + int64(fs.pageSize) - 1) / int64(fs.pageSize)
	if npages > fs.FreeSpace() {
		return nil, fmt.Errorf("fs: create %q: out of space", path)
	}
	f, err := fs.Create(nil, path)
	if err != nil {
		return nil, err
	}
	if size > 0 {
		parent, _, _ := fs.lookupParent(path)
		blocks, err := fs.allocBlocks(parent.group, npages)
		if err != nil {
			return nil, err
		}
		f.node.blocks = blocks
		f.node.size = size
	}
	return f, nil
}

// Open returns a handle on an existing file.
func (fs *FS) Open(p *sim.Proc, path string) (*File, error) {
	fs.charge(p, fs.cfg.SyscallOverhead)
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return nil, err
	}
	fs.charge(p, sim.Time(len(parent.entries))*fs.cfg.DirentCost)
	ino, ok := parent.entries[name]
	if !ok {
		return nil, fmt.Errorf("fs: open %q: no such file", path)
	}
	return &File{fs: fs, node: fs.inodes[ino], path: path}, nil
}

// touchInodeBlock charges the I/O for reaching ino's on-disk inode, going
// through the buffer cache like any other block.
func (fs *FS) touchInodeBlock(p *sim.Proc, ino Ino, dirty bool) {
	blk, id := fs.inodeBlock(ino)
	if fs.c.Lookup(id) {
		if dirty {
			fs.c.MarkDirty(p, id)
		}
		return
	}
	if p != nil {
		fs.d.Access(p, blk, 1, false)
	}
	fs.c.Insert(p, id, cache.BlockAddr{Disk: fs.d, Block: blk}, dirty)
}

// Stat performs the stat() system call: resolve the name, fetch the inode
// (a disk access when its block is not cached), and return the metadata.
// This is FLDC's probe.
func (fs *FS) Stat(p *sim.Proc, path string) (Stat, error) {
	fs.StatCalls++
	fs.charge(p, fs.cfg.SyscallOverhead)
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return Stat{}, err
	}
	fs.charge(p, sim.Time(len(parent.entries))*fs.cfg.DirentCost)
	ino, ok := parent.entries[name]
	if !ok {
		return Stat{}, fmt.Errorf("fs: stat %q: no such file", path)
	}
	node := fs.inodes[ino]
	fs.touchInodeBlock(p, ino, false)
	return Stat{Ino: ino, Size: node.size, Atime: node.atime, Mtime: node.mtime, Ctime: node.ctime}, nil
}

// Utimes sets a file's access and modification times (used by the FLDC
// refresh so make(1)-style tools keep working).
func (fs *FS) Utimes(p *sim.Proc, path string, atime, mtime sim.Time) error {
	fs.charge(p, fs.cfg.SyscallOverhead)
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return err
	}
	ino, ok := parent.entries[name]
	if !ok {
		return fmt.Errorf("fs: utimes %q: no such file", path)
	}
	node := fs.inodes[ino]
	node.atime, node.mtime = atime, mtime
	fs.touchInodeBlock(p, ino, true)
	return nil
}

// Readdir returns the names of files in a directory, sorted. Subdirectory
// names are not included.
func (fs *FS) Readdir(p *sim.Proc, path string) ([]string, error) {
	fs.charge(p, fs.cfg.SyscallOverhead)
	d, err := fs.lookupDir(path)
	if err != nil {
		return nil, err
	}
	fs.charge(p, sim.Time(len(d.entries))*fs.cfg.DirentCost)
	return sortedNames(d.entries), nil
}

// ReaddirDirs returns the names of subdirectories of a directory,
// sorted.
func (fs *FS) ReaddirDirs(p *sim.Proc, path string) ([]string, error) {
	fs.charge(p, fs.cfg.SyscallOverhead)
	d, err := fs.lookupDir(path)
	if err != nil {
		return nil, err
	}
	fs.charge(p, sim.Time(len(d.subdirs))*fs.cfg.DirentCost)
	return sortedNames(d.subdirs), nil
}

// Unlink removes a file, freeing its inode and blocks and invalidating
// its cached pages.
func (fs *FS) Unlink(p *sim.Proc, path string) error {
	fs.charge(p, fs.cfg.SyscallOverhead)
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return err
	}
	ino, ok := parent.entries[name]
	if !ok {
		return fmt.Errorf("fs: unlink %q: no such file", path)
	}
	node := fs.inodes[ino]
	fs.c.InvalidateFile(int64(ino))
	fs.freeBlocks(node.blocks)
	fs.freeInode(ino)
	delete(fs.inodes, ino)
	delete(parent.entries, name)
	fs.touchInodeBlock(p, ino, true)
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(p *sim.Proc, path string) error {
	fs.charge(p, fs.cfg.SyscallOverhead)
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return err
	}
	d, ok := parent.subdirs[name]
	if !ok {
		return fmt.Errorf("fs: rmdir %q: no such directory", path)
	}
	if len(d.entries) > 0 || len(d.subdirs) > 0 {
		return fmt.Errorf("fs: rmdir %q: not empty", path)
	}
	delete(parent.subdirs, name)
	return nil
}

// Rename moves a file or directory to a new path (both parents must
// exist; the destination must not).
func (fs *FS) Rename(p *sim.Proc, oldPath, newPath string) error {
	fs.charge(p, fs.cfg.SyscallOverhead)
	oldParent, oldName, err := fs.lookupParent(oldPath)
	if err != nil {
		return err
	}
	newParent, newName, err := fs.lookupParent(newPath)
	if err != nil {
		return err
	}
	if _, ok := newParent.entries[newName]; ok {
		return fmt.Errorf("fs: rename: %q exists", newPath)
	}
	if _, ok := newParent.subdirs[newName]; ok {
		return fmt.Errorf("fs: rename: %q exists", newPath)
	}
	if ino, ok := oldParent.entries[oldName]; ok {
		delete(oldParent.entries, oldName)
		newParent.entries[newName] = ino
		return nil
	}
	if d, ok := oldParent.subdirs[oldName]; ok {
		delete(oldParent.subdirs, oldName)
		newParent.subdirs[newName] = d
		return nil
	}
	return fmt.Errorf("fs: rename %q: no such file or directory", oldPath)
}

// --- data path ---

func (fs *FS) pageID(ino Ino, page int64) cache.PageID {
	return cache.PageID{Ino: int64(ino), Index: page}
}

// Read reads n bytes at offset off, charging copy time for cached pages
// and disk time (with clustered transfers) for misses.
func (f *File) Read(p *sim.Proc, off, n int64) error {
	fs := f.fs
	fs.charge(p, fs.cfg.SyscallOverhead)
	if off < 0 || n < 0 || off+n > f.node.size {
		return fmt.Errorf("fs: read [%d,%d) beyond size %d of %q", off, off+n, f.node.size, f.path)
	}
	if n == 0 {
		return nil
	}
	f.node.atime = fs.e.Now()
	ps := int64(fs.pageSize)
	first := off / ps
	last := (off + n - 1) / ps
	for pg := first; pg <= last; {
		id := fs.pageID(f.node.ino, pg)
		if fs.c.Lookup(id) {
			fs.charge(p, fs.cfg.PageCopy)
			pg++
			continue
		}
		// Cluster this miss with following contiguous misses.
		run := int64(1)
		for pg+run <= last &&
			run < int64(fs.cfg.MaxCluster) &&
			f.node.blocks[pg+run] == f.node.blocks[pg]+run &&
			!fs.c.Contains(fs.pageID(f.node.ino, pg+run)) {
			run++
		}
		fs.d.Access(p, f.node.blocks[pg], int(run), false)
		for i := int64(0); i < run; i++ {
			fs.c.Insert(p, fs.pageID(f.node.ino, pg+i),
				cache.BlockAddr{Disk: fs.d, Block: f.node.blocks[pg+i]}, false)
			fs.charge(p, fs.cfg.PageCopy)
		}
		pg += run
	}
	return nil
}

// ReadByteAt reads a single byte — the FCCD probe. Exactly one page is
// brought into the cache on a miss (the paper's Heisenberg effect: the
// probe itself perturbs the cache by one page).
func (f *File) ReadByteAt(p *sim.Proc, off int64) error {
	fs := f.fs
	fs.charge(p, fs.cfg.SyscallOverhead)
	if off < 0 || off >= f.node.size {
		return fmt.Errorf("fs: read byte %d beyond size %d of %q", off, f.node.size, f.path)
	}
	f.node.atime = fs.e.Now()
	pg := off / int64(fs.pageSize)
	id := fs.pageID(f.node.ino, pg)
	if !fs.c.Lookup(id) {
		fs.d.Access(p, f.node.blocks[pg], 1, false)
		fs.c.Insert(p, id, cache.BlockAddr{Disk: fs.d, Block: f.node.blocks[pg]}, false)
	}
	fs.charge(p, fs.cfg.ByteCopy)
	return nil
}

// Write writes n bytes at offset off, extending the file as needed.
// Writes are buffered in the cache as dirty pages (write-behind); the
// cache's dirty throttle makes heavy writers pay for cleaning.
func (f *File) Write(p *sim.Proc, off, n int64) error {
	fs := f.fs
	fs.charge(p, fs.cfg.SyscallOverhead)
	if off < 0 || n < 0 {
		return fmt.Errorf("fs: bad write range")
	}
	if n == 0 {
		return nil
	}
	ps := int64(fs.pageSize)
	end := off + n
	// Extend the block map if the file grows.
	needPages := (end + ps - 1) / ps
	if int64(len(f.node.blocks)) < needPages {
		parent, _, err := fs.lookupParent(f.path)
		if err != nil {
			return err
		}
		newBlocks, err := fs.allocBlocks(parent.group, needPages-int64(len(f.node.blocks)))
		if err != nil {
			return err
		}
		f.node.blocks = append(f.node.blocks, newBlocks...)
	}
	oldSize := f.node.size
	if end > f.node.size {
		f.node.size = end
	}
	f.node.mtime = fs.e.Now()
	first := off / ps
	last := (end - 1) / ps
	for pg := first; pg <= last; pg++ {
		id := fs.pageID(f.node.ino, pg)
		partial := (pg == first && off%ps != 0) || (pg == last && end%ps != 0 && end < f.node.size)
		existed := pg*ps < oldSize
		if !fs.c.Contains(id) && partial && existed {
			// Read-modify-write of a partially overwritten page.
			fs.d.Access(p, f.node.blocks[pg], 1, false)
		}
		fs.c.Insert(p, id, cache.BlockAddr{Disk: fs.d, Block: f.node.blocks[pg]}, true)
		fs.charge(p, fs.cfg.PageCopy)
	}
	return nil
}

// --- harness (ground truth) helpers; not part of the gray-box surface ---

// blocksOf returns the live block slice of a file — no copy. Callers
// must neither mutate nor retain it past the next fs operation; it is
// the internal accessor behind the copying public boundary (BlocksOf)
// and the per-call hot paths (FirstBlockOf).
func (fs *FS) blocksOf(path string) ([]int64, error) {
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return nil, err
	}
	ino, ok := parent.entries[name]
	if !ok {
		return nil, fmt.Errorf("fs: no such file %q", path)
	}
	return fs.inodes[ino].blocks, nil
}

// BlocksOf returns the disk blocks of a file, for layout validation.
// The slice is a defensive copy; hot callers that need only the first
// block use FirstBlockOf instead.
func (fs *FS) BlocksOf(path string) ([]int64, error) {
	blocks, err := fs.blocksOf(path)
	if err != nil {
		return nil, err
	}
	return append([]int64(nil), blocks...), nil
}

// FirstBlockOf returns a file's first data block without copying the
// block map. ok is false when the file does not exist or has no blocks.
// This is the audit oracle's per-prediction path (every FLDC inference
// is scored against it), so it must not allocate per call.
func (fs *FS) FirstBlockOf(path string) (block int64, ok bool) {
	blocks, err := fs.blocksOf(path)
	if err != nil || len(blocks) == 0 {
		return 0, false
	}
	return blocks[0], true
}

// InoOf returns a file's inode number without charging stat costs.
func (fs *FS) InoOf(path string) (Ino, error) {
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return 0, err
	}
	ino, ok := parent.entries[name]
	if !ok {
		return 0, fmt.Errorf("fs: no such file %q", path)
	}
	return ino, nil
}

// PresenceBitmap reports which pages of path are cached (the kernel
// modification of footnote 2, available to harnesses only).
func (fs *FS) PresenceBitmap(path string) ([]bool, error) {
	parent, name, err := fs.lookupParent(path)
	if err != nil {
		return nil, err
	}
	ino, ok := parent.entries[name]
	if !ok {
		return nil, fmt.Errorf("fs: no such file %q", path)
	}
	node := fs.inodes[ino]
	npages := (node.size + int64(fs.pageSize) - 1) / int64(fs.pageSize)
	return fs.c.PresenceBitmap(int64(ino), npages), nil
}
