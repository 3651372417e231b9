package fs

import "slices"

// Snapshot is a deep copy of a file system's metadata state — allocation
// bitmaps, inodes, the directory tree, and the allocator rotors — taken
// with FS.Snapshot and restored into a freshly built FS with FS.Restore.
// It is immutable after capture and safe for concurrent Restores.
type Snapshot struct {
	groups       []groupState
	inodes       map[Ino]*Inode
	root         *dir
	lfsRotor     int64
	nextDirGroup int
	statCalls    int64
}

// groupState is the mutable part of a cylinder group; the geometry
// (inodeStart, dataStart, ...) is derived from Config and rebuilt by New.
// A bitmap the group never built stays nil here too.
type groupState struct {
	used       []uint64
	nfree      int64
	rotor      int64
	inodeMap   []uint64
	inodesUsed int
}

func cloneDir(d *dir) *dir {
	nd := newDir(d.group)
	for name, ino := range d.entries {
		nd.entries[name] = ino
	}
	for name, sub := range d.subdirs {
		nd.subdirs[name] = cloneDir(sub)
	}
	return nd
}

func cloneInode(in *Inode) *Inode {
	cp := *in
	cp.blocks = append([]int64(nil), in.blocks...)
	return &cp
}

// Snapshot deep-copies the file system's metadata.
func (fs *FS) Snapshot() *Snapshot {
	s := &Snapshot{
		groups:       make([]groupState, len(fs.groups)),
		inodes:       make(map[Ino]*Inode, len(fs.inodes)),
		root:         cloneDir(fs.root),
		lfsRotor:     fs.lfsRotor,
		nextDirGroup: fs.nextDirGroup,
		statCalls:    fs.StatCalls,
	}
	for i := range fs.groups {
		gr := &fs.groups[i]
		s.groups[i] = groupState{
			used:       slices.Clone(gr.used),
			nfree:      gr.nfree,
			rotor:      gr.rotor,
			inodeMap:   slices.Clone(gr.inodeMap),
			inodesUsed: gr.inodesUsed,
		}
	}
	for ino, in := range fs.inodes {
		s.inodes[ino] = cloneInode(in)
	}
	return s
}

// Restore fills a freshly built, empty file system (same disk geometry
// and Config as the snapshot's source) from s. It copies the bitmaps of
// the groups that have them and leaves the rest nil, so forks share no
// bitmap with s or with each other.
func (fs *FS) Restore(s *Snapshot) {
	if len(fs.inodes) != 0 || len(fs.root.entries) != 0 || len(fs.root.subdirs) != 0 {
		panic("fs: Restore into a non-empty file system")
	}
	if len(fs.groups) != len(s.groups) {
		panic("fs: Restore geometry mismatch")
	}
	for i, gs := range s.groups {
		gr := &fs.groups[i]
		gr.used = slices.Clone(gs.used)
		gr.nfree = gs.nfree
		gr.rotor = gs.rotor
		gr.inodeMap = slices.Clone(gs.inodeMap)
		gr.inodesUsed = gs.inodesUsed
	}
	for ino, in := range s.inodes {
		fs.inodes[ino] = cloneInode(in)
	}
	fs.root = cloneDir(s.root)
	fs.lfsRotor = s.lfsRotor
	fs.nextDirGroup = s.nextDirGroup
	fs.StatCalls = s.statCalls
}
