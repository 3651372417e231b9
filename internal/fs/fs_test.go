package fs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"graybox/internal/cache"
	"graybox/internal/disk"
	"graybox/internal/mem"
	"graybox/internal/sim"
)

type world struct {
	e    *sim.Engine
	d    *disk.Disk
	c    *cache.Cache
	fs   *FS
	pool *mem.Pool
}

func newWorld(t testing.TB) *world {
	t.Helper()
	e := sim.NewEngine(1)
	d := disk.New(e, disk.DefaultParams())
	pool := mem.NewPool(e, 8192) // 32 MB of 4 KB frames
	c := cache.New(e, cache.Config{MaxDirty: 1024}, cache.NewClock(), pool)
	pool.AddShrinker(c)
	return &world{e: e, d: d, c: c, fs: New(e, d, c, DefaultConfig()), pool: pool}
}

// run executes fn as a simulated process and propagates panics as test
// failures.
func (w *world) run(t testing.TB, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	start := w.e.Now()
	pr := w.e.Go("test", fn)
	w.e.Run()
	if pr.Err() != nil {
		t.Fatal(pr.Err())
	}
	return w.e.Now() - start
}

func TestCreateOpenStat(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		if err := w.fs.Mkdir(p, "data"); err != nil {
			t.Fatal(err)
		}
		f, err := w.fs.Create(p, "data/a")
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != 0 {
			t.Errorf("new file size = %d", f.Size())
		}
		st, err := w.fs.Stat(p, "data/a")
		if err != nil {
			t.Fatal(err)
		}
		if st.Ino == 0 {
			t.Error("zero inode")
		}
		if _, err := w.fs.Open(p, "data/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.fs.Open(p, "data/missing"); err == nil {
			t.Error("open of missing file succeeded")
		}
	})
}

func TestINumbersFollowCreationOrder(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		if err := w.fs.Mkdir(p, "d"); err != nil {
			t.Fatal(err)
		}
		var prev Ino
		for i := 0; i < 20; i++ {
			f, err := w.fs.Create(p, fmt.Sprintf("d/f%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			_ = f
			st, _ := w.fs.Stat(p, fmt.Sprintf("d/f%02d", i))
			if st.Ino <= prev {
				t.Fatalf("i-number %d not ascending after %d", st.Ino, prev)
			}
			prev = st.Ino
		}
	})
}

func TestCreationOrderMatchesLayout(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		if err := w.fs.Mkdir(p, "d"); err != nil {
			t.Fatal(err)
		}
		var lastEnd int64 = -1
		for i := 0; i < 10; i++ {
			path := fmt.Sprintf("d/f%02d", i)
			if _, err := w.fs.CreateSized(path, 8192); err != nil {
				t.Fatal(err)
			}
			blocks, _ := w.fs.BlocksOf(path)
			if len(blocks) != 2 {
				t.Fatalf("file %s has %d blocks, want 2", path, len(blocks))
			}
			if blocks[0] <= lastEnd {
				t.Fatalf("file %s starts at %d, before previous end %d", path, blocks[0], lastEnd)
			}
			if blocks[1] != blocks[0]+1 {
				t.Fatalf("file %s not contiguous: %v", path, blocks)
			}
			lastEnd = blocks[1]
		}
	})
}

func TestAllocatorNeverDoubleAllocates(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		if err := w.fs.Mkdir(p, "d"); err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(3)
		owned := map[int64]string{}
		live := []string{}
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				// Delete a random live file.
				k := rng.Intn(len(live))
				path := live[k]
				blocks, _ := w.fs.BlocksOf(path)
				if err := w.fs.Unlink(p, path); err != nil {
					t.Fatal(err)
				}
				for _, b := range blocks {
					delete(owned, b)
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			path := fmt.Sprintf("d/f%04d", i)
			size := int64(rng.Intn(5)+1) * 4096
			if _, err := w.fs.CreateSized(path, size); err != nil {
				t.Fatal(err)
			}
			blocks, _ := w.fs.BlocksOf(path)
			for _, b := range blocks {
				if other, dup := owned[b]; dup {
					t.Fatalf("block %d allocated to both %s and %s", b, other, path)
				}
				owned[b] = path
			}
			live = append(live, path)
		}
	})
}

// TestAllocateEveryBlock fills a disk of default-geometry groups through
// the allocator and empties it again. A default group's data area ends
// mid-word in the used bitmap, so both allocation policies walk each
// group's partial last word.
func TestAllocateEveryBlock(t *testing.T) {
	for _, policy := range []AllocPolicy{AllocFFS, AllocLFS} {
		e := sim.NewEngine(1)
		cfg := DefaultConfig()
		cfg.Alloc = policy
		dp := disk.DefaultParams()
		dp.Cylinders = 4*cfg.GroupCylinders + 5 // four groups and a partial tail
		pool := mem.NewPool(e, 64)
		f := New(e, disk.New(e, dp), cache.New(e, cache.Config{}, cache.NewClock(), pool), cfg)
		if len(f.groups) != 4 || f.groups[0].dataBlocks%64 == 0 {
			t.Fatalf("geometry: %d groups of %d data blocks, want 4 ending mid-word", len(f.groups), f.groups[0].dataBlocks)
		}
		mustPanic(t, "freeing a block of a group that never allocated", func() { f.freeBlocks([]int64{f.groups[2].dataStart}) })
		free := f.FreeSpace()
		blocks, err := f.allocBlocks(1, free)
		if err != nil {
			t.Fatalf("policy %d: allocating all %d free blocks: %v", policy, free, err)
		}
		perGroup := f.groups[0].inodeBlks + f.groups[0].dataBlocks
		seen := make(map[int64]bool, len(blocks))
		for _, b := range blocks {
			g := b / perGroup
			if g >= int64(len(f.groups)) || b < f.groups[g].dataStart {
				t.Fatalf("policy %d: block %d is outside its group's data range", policy, b)
			}
			if seen[b] {
				t.Fatalf("policy %d: block %d allocated twice", policy, b)
			}
			seen[b] = true
		}
		if int64(len(blocks)) != free || f.FreeSpace() != 0 {
			t.Fatalf("policy %d: got %d blocks, %d still free; want %d and 0", policy, len(blocks), f.FreeSpace(), free)
		}
		if _, err := f.allocBlocks(0, 1); err == nil {
			t.Errorf("policy %d: allocation on a full disk succeeded", policy)
		}
		f.freeBlocks(blocks)
		if f.FreeSpace() != free {
			t.Errorf("policy %d: FreeSpace = %d after freeing everything, want %d", policy, f.FreeSpace(), free)
		}
		mustPanic(t, "freeing a block twice", func() { f.freeBlocks(blocks[:1]) })
	}
}

// TestAllocateEveryInode fills every group's inode map through the
// allocator and empties it again. A group holds 100 inodes, so its map
// ends mid-word, and the lowest-free scan must never hand out the
// word's unused tail.
func TestAllocateEveryInode(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.InodesPerGroup = 100
	dp := disk.DefaultParams()
	dp.Cylinders = 4 * cfg.GroupCylinders
	pool := mem.NewPool(e, 64)
	f := New(e, disk.New(e, dp), cache.New(e, cache.Config{}, cache.NewClock(), pool), cfg)
	mustPanic(t, "freeing an inode of a group that never allocated", func() { f.freeInode(f.inoOf(3, 0)) })
	total := Ino(len(f.groups) * cfg.InodesPerGroup)
	for want := Ino(1); want <= total; want++ {
		if ino, err := f.allocInode(0); err != nil || ino != want {
			t.Fatalf("allocation %d: got i-number %d (%v), want %d", want, ino, err, want)
		}
	}
	if _, err := f.allocInode(2); err == nil || !strings.Contains(err.Error(), "out of inodes") {
		t.Fatalf("allocating with every inode in use: err %v, want out of inodes", err)
	}
	for ino := Ino(1); ino <= total; ino++ {
		f.freeInode(ino)
	}
	for _, gr := range f.groups {
		if gr.inodesUsed != 0 || popcount(gr.inodeMap) != 0 {
			t.Fatalf("group %d: %d inodes counted, %d in its map after freeing every inode", gr.id, gr.inodesUsed, popcount(gr.inodeMap))
		}
	}
	mustPanic(t, "freeing an inode twice", func() { f.freeInode(total) })
}

// TestBitmapsBuiltOnFirstUse pins when a group's bitmaps exist: New and
// a Restore of an empty snapshot build none, a group's first file builds
// both of that group's and no other's, and Restore copies the built ones.
func TestBitmapsBuiltOnFirstUse(t *testing.T) {
	w := newWorld(t)
	fresh := func() *FS {
		pool := mem.NewPool(w.e, 64)
		return New(w.e, disk.New(w.e, disk.DefaultParams()), cache.New(w.e, cache.Config{}, cache.NewClock(), pool), DefaultConfig())
	}
	built := func(what string, f *FS, want ...int) {
		t.Helper()
		for _, gr := range f.groups {
			has := gr.id < len(want) && want[gr.id] == 1
			if (gr.used != nil) != has || (gr.inodeMap != nil) != has {
				t.Fatalf("%s: group %d has block bitmap %v and inode map %v, want %v", what, gr.id, gr.used != nil, gr.inodeMap != nil, has)
			}
		}
	}
	built("New", w.fs)
	empty := fresh()
	empty.Restore(w.fs.Snapshot())
	built("Restore of an empty snapshot", empty)

	if err := w.fs.Mkdir(nil, "d"); err != nil { // the directory lands in group 1
		t.Fatal(err)
	}
	if _, err := w.fs.CreateSized("d/f", 64<<10); err != nil {
		t.Fatal(err)
	}
	built("after the first file", w.fs, 0, 1)
	cp := fresh()
	cp.Restore(w.fs.Snapshot())
	built("Restore", cp, 0, 1)
	if &cp.groups[1].used[0] == &w.fs.groups[1].used[0] || &cp.groups[1].inodeMap[0] == &w.fs.groups[1].inodeMap[0] {
		t.Fatal("Restore shares a bitmap with the file system the snapshot was taken from")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestReadChargesDiskThenCache(t *testing.T) {
	w := newWorld(t)
	const size = 1 << 20 // 1 MB
	var cold, warm sim.Time
	w.run(t, func(p *sim.Proc) {
		if _, err := w.fs.CreateSized("big", size); err != nil {
			t.Fatal(err)
		}
		f, _ := w.fs.Open(p, "big")
		start := p.Now()
		if err := f.Read(p, 0, size); err != nil {
			t.Fatal(err)
		}
		cold = p.Now() - start
		start = p.Now()
		if err := f.Read(p, 0, size); err != nil {
			t.Fatal(err)
		}
		warm = p.Now() - start
	})
	if cold < 10*warm {
		t.Errorf("cold read %v not much slower than warm %v", cold, warm)
	}
	// Warm read of 256 pages at ~10us/page copy: expect ~2.6ms.
	if warm < sim.Millisecond || warm > 10*sim.Millisecond {
		t.Errorf("warm 1MB read took %v, want a few ms", warm)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		w.fs.CreateSized("f", 100)
		f, _ := w.fs.Open(p, "f")
		if err := f.Read(p, 0, 101); err == nil {
			t.Error("read beyond EOF succeeded")
		}
		if err := f.ReadByteAt(p, 100); err == nil {
			t.Error("byte read at EOF succeeded")
		}
		if err := f.Read(p, 0, 0); err != nil {
			t.Errorf("zero-length read failed: %v", err)
		}
	})
}

func TestProbeBimodalTiming(t *testing.T) {
	w := newWorld(t)
	var hit, miss sim.Time
	w.run(t, func(p *sim.Proc) {
		w.fs.CreateSized("f", 1<<20)
		f, _ := w.fs.Open(p, "f")
		start := p.Now()
		f.ReadByteAt(p, 0) // cold: disk
		miss = p.Now() - start
		start = p.Now()
		f.ReadByteAt(p, 0) // warm: memory
		hit = p.Now() - start
	})
	if hit > 10*sim.Microsecond {
		t.Errorf("in-cache probe took %v, want a few microseconds", hit)
	}
	// The first block can be reached with near-zero seek and rotation, so
	// only require a clear bimodal gap plus real device time.
	if miss < 300*sim.Microsecond || miss < 50*hit {
		t.Errorf("on-disk probe took %v (hit %v), want a clear disk-scale gap", miss, hit)
	}
}

func TestProbeHeisenbergOnePage(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		w.fs.CreateSized("f", 1<<20)
		f, _ := w.fs.Open(p, "f")
		f.ReadByteAt(p, 5*4096+17)
	})
	bm, err := w.fs.PresenceBitmap("f")
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, b := range bm {
		if b {
			cached++
		}
	}
	if cached != 1 || !bm[5] {
		t.Errorf("probe cached %d pages (page5=%v), want exactly page 5", cached, bm[5])
	}
}

func TestWriteDirtiesAndExtends(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		f, err := w.fs.Create(p, "out")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Write(p, 0, 10*4096); err != nil {
			t.Fatal(err)
		}
		if f.Size() != 10*4096 {
			t.Errorf("size = %d, want %d", f.Size(), 10*4096)
		}
		// Append more.
		if err := f.Write(p, f.Size(), 4096); err != nil {
			t.Fatal(err)
		}
		if f.Size() != 11*4096 {
			t.Errorf("size after append = %d", f.Size())
		}
	})
	if w.d.Stats().Writes != 0 {
		t.Errorf("writes hit disk immediately: %d (want write-behind)", w.d.Stats().Writes)
	}
	w.run(t, func(p *sim.Proc) { w.c.Sync(p) })
	if w.d.Stats().Writes == 0 {
		t.Error("sync wrote nothing")
	}
}

func TestUnlinkFreesSpaceAndCache(t *testing.T) {
	w := newWorld(t)
	free0 := w.fs.FreeSpace()
	w.run(t, func(p *sim.Proc) {
		w.fs.CreateSized("f", 100*4096)
		f, _ := w.fs.Open(p, "f")
		f.Read(p, 0, 100*4096)
		ino, _ := w.fs.InoOf("f")
		if w.c.ResidentPages(int64(ino)) != 100 {
			t.Errorf("resident = %d, want 100", w.c.ResidentPages(int64(ino)))
		}
		if err := w.fs.Unlink(p, "f"); err != nil {
			t.Fatal(err)
		}
		if w.c.ResidentPages(int64(ino)) != 0 {
			t.Error("pages survive unlink")
		}
	})
	if w.fs.FreeSpace() != free0 {
		t.Errorf("space leaked: %d -> %d", free0, w.fs.FreeSpace())
	}
	w.run(t, func(p *sim.Proc) {
		if err := w.fs.Unlink(p, "f"); err == nil {
			t.Error("double unlink succeeded")
		}
	})
}

func TestRenameFileAndDir(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		w.fs.Mkdir(p, "a")
		w.fs.Mkdir(p, "b")
		w.fs.CreateSized("a/f", 4096)
		if err := w.fs.Rename(p, "a/f", "b/g"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.fs.Open(p, "b/g"); err != nil {
			t.Errorf("renamed file unreachable: %v", err)
		}
		if _, err := w.fs.Open(p, "a/f"); err == nil {
			t.Error("old name still resolves")
		}
		// Directory rename (the refresh step).
		w.fs.CreateSized("a/h", 4096)
		if err := w.fs.Rename(p, "a", "c"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.fs.Open(p, "c/h"); err != nil {
			t.Errorf("file lost in dir rename: %v", err)
		}
	})
}

func TestRmdir(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		w.fs.Mkdir(p, "d")
		w.fs.CreateSized("d/f", 0)
		if err := w.fs.Rmdir(p, "d"); err == nil {
			t.Error("rmdir of non-empty dir succeeded")
		}
		w.fs.Unlink(p, "d/f")
		if err := w.fs.Rmdir(p, "d"); err != nil {
			t.Errorf("rmdir failed: %v", err)
		}
	})
}

func TestReaddirSorted(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		w.fs.Mkdir(p, "d")
		for _, n := range []string{"c", "a", "b"} {
			w.fs.CreateSized("d/"+n, 0)
		}
		names, err := w.fs.Readdir(p, "d")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
			t.Errorf("names = %v", names)
		}
	})
}

func TestStatCostColdVsWarm(t *testing.T) {
	w := newWorld(t)
	var cold, warm sim.Time
	w.run(t, func(p *sim.Proc) {
		w.fs.Mkdir(p, "d")
		w.fs.CreateSized("d/f", 4096)
		w.c.Drop() // push the inode table block out
		start := p.Now()
		w.fs.Stat(p, "d/f")
		cold = p.Now() - start
		start = p.Now()
		w.fs.Stat(p, "d/f")
		warm = p.Now() - start
	})
	if cold < sim.Millisecond {
		t.Errorf("cold stat %v, want a disk access (ms)", cold)
	}
	if warm > 100*sim.Microsecond {
		t.Errorf("warm stat %v, want microseconds", warm)
	}
}

func TestAgingFragmentsLayout(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(p *sim.Proc) {
		w.fs.Mkdir(p, "d")
		for i := 0; i < 100; i++ {
			w.fs.CreateSized(fmt.Sprintf("d/f%03d", i), 8*4096)
		}
		// Fresh: i-number order == layout order. Age it.
		rng := sim.NewRNG(7)
		for epoch := 0; epoch < 30; epoch++ {
			for k := 0; k < 5; k++ {
				names, _ := w.fs.Readdir(p, "d")
				victim := names[rng.Intn(len(names))]
				w.fs.Unlink(p, "d/"+victim)
				w.fs.CreateSized(fmt.Sprintf("d/n%02d_%d", epoch, k), 8*4096)
			}
		}
		// Measure disorder: walk files in i-number order; fraction of
		// consecutive pairs whose layout goes backwards should be
		// significant after aging.
		names, _ := w.fs.Readdir(p, "d")
		type fi struct {
			ino   Ino
			block int64
		}
		var fis []fi
		for _, n := range names {
			ino, _ := w.fs.InoOf("d/" + n)
			blocks, _ := w.fs.BlocksOf("d/" + n)
			fis = append(fis, fi{ino, blocks[0]})
		}
		for i := 1; i < len(fis); i++ {
			for j := i; j > 0 && fis[j-1].ino > fis[j].ino; j-- {
				fis[j-1], fis[j] = fis[j], fis[j-1]
			}
		}
		backwards := 0
		for i := 1; i < len(fis); i++ {
			if fis[i].block < fis[i-1].block {
				backwards++
			}
		}
		if backwards == 0 {
			t.Error("aging produced no layout disorder")
		}
	})
}

func TestLFSAllocatorAppends(t *testing.T) {
	e := sim.NewEngine(1)
	d := disk.New(e, disk.DefaultParams())
	pool := mem.NewPool(e, 4096)
	c := cache.New(e, cache.Config{}, cache.NewClock(), pool)
	pool.AddShrinker(c)
	cfg := DefaultConfig()
	cfg.Alloc = AllocLFS
	f := New(e, d, c, cfg)
	pr := e.Go("t", func(p *sim.Proc) {
		f.Mkdir(p, "d")
		f.CreateSized("d/a", 4*4096)
		f.CreateSized("d/b", 4*4096)
		ba, _ := f.BlocksOf("d/a")
		bb, _ := f.BlocksOf("d/b")
		if bb[0] != ba[3]+1 {
			t.Errorf("LFS: b starts at %d, want right after a's end %d", bb[0], ba[3])
		}
	})
	e.Run()
	if pr.Err() != nil {
		t.Fatal(pr.Err())
	}
}

func TestInoRoundTripProperty(t *testing.T) {
	w := newWorld(t)
	f := func(g uint8, idx uint16) bool {
		gi := int(g) % len(w.fs.groups)
		ii := int(idx) % w.fs.cfg.InodesPerGroup
		ino := w.fs.inoOf(gi, ii)
		g2, i2 := w.fs.groupOfIno(ino)
		return g2 == gi && i2 == ii && ino > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOutOfSpace: a CreateSized that does not fit fails and changes
// nothing, under either allocator: no file, no inode, no block and no
// moved rotor. The next file gets the i-number it would have had, and
// the name stays free for a retry.
func TestOutOfSpace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alloc AllocPolicy
	}{{"ffs", AllocFFS}, {"lfs", AllocLFS}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			cfg := DefaultConfig()
			cfg.Alloc = tc.alloc
			w.fs = New(w.e, w.d, w.c, cfg)
			for _, name := range []string{"a", "b", "c"} {
				if _, err := w.fs.CreateSized(name, 8*4096); err != nil {
					t.Fatal(err)
				}
			}
			// Unlinking b leaves a hole in the inodes and the blocks.
			hole, _ := w.fs.InoOf("b")
			w.run(t, func(p *sim.Proc) {
				if err := w.fs.Unlink(p, "b"); err != nil {
					t.Fatal(err)
				}
			})
			free := w.fs.FreeSpace()
			before := w.fs.Snapshot()
			if _, err := w.fs.CreateSized("big", (free+1)*4096); err == nil {
				t.Fatal("over-allocation succeeded")
			}
			if ino, err := w.fs.InoOf("big"); err == nil {
				t.Errorf("failed create left big behind as inode %d", ino)
			}
			if got := w.fs.FreeSpace(); got != free {
				t.Errorf("FreeSpace = %d after the failed create, want %d", got, free)
			}
			if !reflect.DeepEqual(w.fs.Snapshot(), before) {
				t.Error("failed create changed the metadata: inodes, bitmaps or rotors")
			}
			if _, err := w.fs.CreateSized("next", 4096); err != nil {
				t.Fatal(err)
			}
			if ino, _ := w.fs.InoOf("next"); ino != hole {
				t.Errorf("next file got i-number %d, want %d, the hole b left", ino, hole)
			}
			if _, err := w.fs.CreateSized("big", 4096); err != nil {
				t.Errorf("retrying big at a size that fits: %v", err)
			}
		})
	}
}

func TestFirstBlockOfMatchesBlocksOf(t *testing.T) {
	w := newWorld(t)
	if _, err := w.fs.CreateSized("f", 16384); err != nil {
		t.Fatal(err)
	}
	blocks, err := w.fs.BlocksOf("f")
	if err != nil {
		t.Fatal(err)
	}
	first, ok := w.fs.FirstBlockOf("f")
	if !ok || first != blocks[0] {
		t.Fatalf("FirstBlockOf = (%d, %v), want (%d, true)", first, ok, blocks[0])
	}
	if _, ok := w.fs.FirstBlockOf("missing"); ok {
		t.Error("FirstBlockOf of missing file reported ok")
	}
	// BlocksOf must stay a defensive copy: mutating its result must not
	// corrupt the layout FirstBlockOf reads in place.
	blocks[0] = -999
	if again, _ := w.fs.FirstBlockOf("f"); again != first {
		t.Fatalf("BlocksOf leaked the live block slice: first block now %d", again)
	}
}

// TestFirstBlockOfAllocs pins the no-copy contract: the audit oracle
// calls this once per FLDC prediction, so it must not allocate.
func TestFirstBlockOfAllocs(t *testing.T) {
	w := newWorld(t)
	if _, err := w.fs.CreateSized("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := w.fs.FirstBlockOf("f"); !ok {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Errorf("FirstBlockOf allocs/op = %v, want 0", allocs)
	}
}
