package fs

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"graybox/internal/cache"
	"graybox/internal/disk"
	"graybox/internal/mem"
	"graybox/internal/sim"
)

// FuzzFSOps checks sequences of file system operations against fsModel,
// a reference that keeps each live file's i-number, size and blocks and
// each directory's cylinder group. After every operation, on every live
// copy of the file system:
//
//   - no block or inode is held by two files, and each file's block map
//     is the blocks it was handed;
//   - every held block reads as in use in its group's bitmap and no other
//     block does, and likewise for inodes in the inode maps;
//   - FreeSpace is the data blocks less the held blocks;
//   - a new file's i-number is the lowest free one in the first group,
//     from its directory's on, that has one free.
//
// The snapshot op restores the file system into a fresh one and carries
// on with two copies in lockstep, so each op must hand out the same
// i-numbers and blocks on both. A later snapshot keeps either copy.
// Each snapshot is restored once more at the end and checked against
// the state it captured, which catches a Restore that shares a bitmap
// with its snapshot or with the file system it was taken from.
func FuzzFSOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeFSScenario(data)
		e := sim.NewEngine(1)
		var err error
		pr := e.Go("fuzz", func(p *sim.Proc) { err = runFSScenario(p, sc) })
		e.Run()
		if pr.Err() != nil {
			t.Fatal(pr.Err())
		}
		if err != nil {
			t.Fatal(err)
		}
	})
}

// Fuzz operations.
const (
	fsopCreate   = iota // create a file of b*300 bytes in directory a
	fsopExtend          // append b*300+1 bytes to file a
	fsopUnlink          // unlink file a
	fsopRename          // move file a into directory b under a new name
	fsopMkdir           // make a directory in directory a
	fsopSnapshot        // Snapshot copy a, Restore into a fresh file system; carry on with both
	numFSOps
)

var fsopNames = [numFSOps]string{"create", "extend", "unlink", "rename", "mkdir", "snapshot"}

type fsOp struct {
	kind int
	a, b byte
}

func (o fsOp) String() string { return fmt.Sprintf("%s %d %d", fsopNames[o.kind], o.a, o.b) }

type fsScenario struct {
	cfg  Config
	disk disk.Params
	ops  []fsOp
}

// decodeFSScenario reads data as
//
//	b0  inodes per group b0%128+1; bit 7 selects AllocLFS
//	b1  (b1&3)+1 groups of (b1>>2)%3+2 cylinders of 24 blocks; bit 4
//	    adds a partial cylinder group at the end of the disk
//	then three bytes per op: kind (%numFSOps), a, b
//
// Missing bytes read as zero.
func decodeFSScenario(data []byte) fsScenario {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b0, b1 := next(), next()
	sc := fsScenario{cfg: DefaultConfig(), disk: disk.DefaultParams()}
	sc.cfg.InodesPerGroup = int(b0%128) + 1
	if b0&0x80 != 0 {
		sc.cfg.Alloc = AllocLFS
	}
	sc.cfg.GroupCylinders = int(b1>>2)%3 + 2
	sc.disk.BlocksPerTrack, sc.disk.TracksPerCyl = 24, 1
	sc.disk.Cylinders = (int(b1&3) + 1) * sc.cfg.GroupCylinders
	if b1&0x10 != 0 {
		sc.disk.Cylinders++
	}
	for len(data) > 0 {
		sc.ops = append(sc.ops, fsOp{kind: int(next() % numFSOps), a: next(), b: next()})
	}
	return sc
}

// newFuzzFS builds one copy of the file system on its own disk and
// cache, with frames to spare so no page is ever reclaimed.
func newFuzzFS(e *sim.Engine, sc fsScenario) *FS {
	pool := mem.NewPool(1024)
	c := cache.New(cache.Config{}, cache.Clock, pool)
	pool.AddShrinker(c)
	return New(e, disk.New(e, sc.disk), c, sc.cfg)
}

func runFSScenario(p *sim.Proc, sc fsScenario) error {
	m := newFSModel(sc)
	copies := []*FS{newFuzzFS(p.Engine(), sc)}
	type taken struct {
		snap *Snapshot
		want *fsModel
	}
	var snaps []taken
	for n, op := range sc.ops {
		if op.kind == fsopSnapshot {
			src := copies[int(op.a)%len(copies)]
			s := src.Snapshot()
			snaps = append(snaps, taken{s, m.clone()})
			twin := newFuzzFS(p.Engine(), sc)
			twin.Restore(s)
			copies = []*FS{src, twin}
		} else if err := m.apply(p, op, copies); err != nil {
			return fmt.Errorf("op %d (%v): %v", n, op, err)
		}
		for k, f := range copies {
			if err := m.check(f); err != nil {
				return fmt.Errorf("op %d (%v): copy %d: %v", n, op, k, err)
			}
		}
	}
	for k, s := range snaps {
		f := newFuzzFS(p.Engine(), sc)
		f.Restore(s.snap)
		if err := s.want.check(f); err != nil {
			return fmt.Errorf("snapshot %d restored again: %v", k, err)
		}
	}
	return nil
}

type modelFile struct {
	ino    Ino
	size   int64
	blocks []int64
}

type modelDir struct {
	path  string // "" is the root
	group int
}

// fsModel is the reference: the live files by path, the directories
// with the group each was given, and the geometry's totals.
type fsModel struct {
	groups   int
	ipg      int   // inodes per group
	data     int64 // data blocks on the disk
	pageSize int64
	dirs     []modelDir // in creation order
	files    map[string]*modelFile
	names    int // names handed out, to keep every name fresh
}

func newFSModel(sc fsScenario) *fsModel {
	groups := sc.disk.Cylinders / sc.cfg.GroupCylinders
	perGroup := int64(sc.disk.BlocksPerTrack*sc.disk.TracksPerCyl*sc.cfg.GroupCylinders) -
		int64((sc.cfg.InodesPerGroup+inodesPerBlock-1)/inodesPerBlock)
	return &fsModel{
		groups:   groups,
		ipg:      sc.cfg.InodesPerGroup,
		data:     int64(groups) * perGroup,
		pageSize: int64(sc.disk.BlockSize),
		dirs:     []modelDir{{"", 0}},
		files:    make(map[string]*modelFile),
	}
}

func (m *fsModel) clone() *fsModel {
	c := *m
	c.dirs = slices.Clone(m.dirs)
	c.files = make(map[string]*modelFile, len(m.files))
	for path, mf := range m.files {
		cp := *mf
		cp.blocks = slices.Clone(mf.blocks)
		c.files[path] = &cp
	}
	return &c
}

func (m *fsModel) paths() []string {
	paths := make([]string, 0, len(m.files))
	for path := range m.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// pick returns live file a (in path order), or "" when there is none.
func (m *fsModel) pick(a byte) string {
	paths := m.paths()
	if len(paths) == 0 {
		return ""
	}
	return paths[int(a)%len(paths)]
}

func (m *fsModel) fresh(dir, prefix string) string {
	m.names++
	name := fmt.Sprintf("%s%d", prefix, m.names)
	if dir == "" {
		return name
	}
	return dir + "/" + name
}

func (m *fsModel) pages(size int64) int64 { return (size + m.pageSize - 1) / m.pageSize }

func (m *fsModel) free() int64 {
	n := m.data
	for _, mf := range m.files {
		n -= int64(len(mf.blocks))
	}
	return n
}

// nextIno is the i-number a file created in a directory of group g must
// get: the lowest free one in the first group from g on that has one.
func (m *fsModel) nextIno(g int) (Ino, bool) {
	used := make(map[Ino]bool, len(m.files))
	for _, mf := range m.files {
		used[mf.ino] = true
	}
	for off := 0; off < m.groups; off++ {
		gi := (g + off) % m.groups
		for idx := 0; idx < m.ipg; idx++ {
			if ino := Ino(gi*m.ipg + idx + 1); !used[ino] {
				return ino, true
			}
		}
	}
	return 0, false
}

// apply runs op on every copy and on the model. Blocks come from the
// first copy; check then holds every other copy to them.
func (m *fsModel) apply(p *sim.Proc, op fsOp, copies []*FS) error {
	switch op.kind {
	case fsopCreate:
		dir := m.dirs[int(op.a)%len(m.dirs)]
		path := m.fresh(dir.path, "f")
		size := int64(op.b) * 300
		want, ok := m.nextIno(dir.group)
		// A file that does not fit is not created at all.
		fits := m.pages(size) <= m.free()
		mf := &modelFile{ino: want, size: size}
		for k, f := range copies {
			_, err := f.CreateSized(path, size)
			if !ok || !fits {
				if err == nil {
					return fmt.Errorf("copy %d created %s of %d pages with %d free, inode free %v", k, path, m.pages(size), m.free(), ok)
				}
				if ino, err := f.InoOf(path); err == nil {
					return fmt.Errorf("copy %d: failed create left %s behind as inode %d", k, path, ino)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("copy %d: creating %s of %d pages with %d free: %v", k, path, m.pages(size), m.free(), err)
			}
			if ino, err := f.InoOf(path); err != nil || ino != want {
				return fmt.Errorf("copy %d: %s got i-number %d (%v), want %d, the lowest free", k, path, ino, err, want)
			}
			if k == 0 {
				mf.blocks = slices.Clone(f.inodes[want].blocks)
			}
		}
		if ok && fits {
			m.files[path] = mf
		}
	case fsopExtend:
		path := m.pick(op.a)
		if path == "" {
			return nil
		}
		mf := m.files[path]
		n := int64(op.b)*300 + 1
		need := m.pages(mf.size+n) - int64(len(mf.blocks))
		fits := need <= m.free()
		var added []int64
		for k, f := range copies {
			h, err := f.Open(p, path)
			if err != nil {
				return err
			}
			if err := h.Write(p, mf.size, n); (err == nil) != fits {
				return fmt.Errorf("copy %d: extending %s by %d pages with %d free: err %v", k, path, need, m.free(), err)
			}
			if k == 0 && fits {
				added = slices.Clone(f.inodes[mf.ino].blocks[len(mf.blocks):])
			}
		}
		if fits {
			mf.size += n
			mf.blocks = append(mf.blocks, added...)
		}
	case fsopUnlink:
		path := m.pick(op.a)
		if path == "" {
			return nil
		}
		for k, f := range copies {
			if err := f.Unlink(p, path); err != nil {
				return fmt.Errorf("copy %d: %v", k, err)
			}
		}
		delete(m.files, path)
	case fsopRename:
		path := m.pick(op.a)
		if path == "" {
			return nil
		}
		to := m.fresh(m.dirs[int(op.b)%len(m.dirs)].path, "r")
		for k, f := range copies {
			if err := f.Rename(p, path, to); err != nil {
				return fmt.Errorf("copy %d: %v", k, err)
			}
		}
		m.files[to] = m.files[path]
		delete(m.files, path)
	case fsopMkdir:
		path := m.fresh(m.dirs[int(op.a)%len(m.dirs)].path, "d")
		for k, f := range copies {
			if err := f.Mkdir(p, path); err != nil {
				return fmt.Errorf("copy %d: %v", k, err)
			}
		}
		// Each mkdir takes the group after the last one's.
		m.dirs = append(m.dirs, modelDir{path, (m.dirs[len(m.dirs)-1].group + 1) % m.groups})
	}
	return nil
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// check holds f to the model.
func (m *fsModel) check(f *FS) error {
	heldBlocks := make(map[int64]string)
	heldInos := make(map[Ino]string)
	for _, path := range m.paths() {
		mf := m.files[path]
		ino, err := f.InoOf(path)
		if err != nil {
			return err
		}
		if ino != mf.ino {
			return fmt.Errorf("%s has i-number %d, want %d", path, ino, mf.ino)
		}
		if other, dup := heldInos[ino]; dup {
			return fmt.Errorf("inode %d held by %s and %s", ino, other, path)
		}
		heldInos[ino] = path
		g, idx := f.groupOfIno(ino)
		if gr := f.groups[g]; gr.inodeMap == nil || gr.inodeMap[idx>>6]&(1<<(idx&63)) == 0 {
			return fmt.Errorf("inode %d of %s reads free", ino, path)
		}
		node := f.inodes[ino]
		if node.size != mf.size || !slices.Equal(node.blocks, mf.blocks) {
			return fmt.Errorf("%s has size %d and blocks %v, want %d and %v", path, node.size, node.blocks, mf.size, mf.blocks)
		}
		for _, b := range node.blocks {
			if other, dup := heldBlocks[b]; dup {
				return fmt.Errorf("block %d held by %s and %s", b, other, path)
			}
			heldBlocks[b] = path
			if gr, idx := f.groupForBlock(b); gr == nil || gr.isFree(idx) {
				return fmt.Errorf("block %d of %s reads free", b, path)
			}
		}
	}
	var usedBlocks, usedInodes int
	for _, gr := range f.groups {
		ub, ui := popcount(gr.used), popcount(gr.inodeMap)
		if gr.nfree != gr.dataBlocks-int64(ub) {
			return fmt.Errorf("group %d counts %d free blocks, its bitmap %d", gr.id, gr.nfree, gr.dataBlocks-int64(ub))
		}
		if gr.inodesUsed != ui {
			return fmt.Errorf("group %d counts %d inodes in use, its map %d", gr.id, gr.inodesUsed, ui)
		}
		usedBlocks += ub
		usedInodes += ui
	}
	if usedBlocks != len(heldBlocks) || usedInodes != len(heldInos) {
		return fmt.Errorf("%d blocks and %d inodes read as in use, %d and %d are held", usedBlocks, usedInodes, len(heldBlocks), len(heldInos))
	}
	if got, want := f.FreeSpace(), m.data-int64(len(heldBlocks)); got != want {
		return fmt.Errorf("FreeSpace = %d, want %d", got, want)
	}
	return nil
}
