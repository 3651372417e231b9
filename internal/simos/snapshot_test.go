package simos

import (
	"fmt"
	"strings"
	"testing"

	"graybox/internal/disk"
	"graybox/internal/fs"
	"graybox/internal/sim"
)

// buildAged constructs a small machine of configuration cfg and ages
// its file system the way experiment setups do: harness-time file
// creation (CreateSized) plus deletions that leave allocation holes. A
// machine with a tier disk also gets a file on the tier's file system
// and an SSTF scheduler on the tier disk, so that a fork must carry
// both.
func buildAged(cfg Config, seed uint64) *System {
	cfg.Seed, cfg.MemoryMB, cfg.KernelMB = seed, 64, 8
	s := New(cfg)
	for i := 0; i < 12; i++ {
		if _, err := s.FS(0).CreateSized(fmt.Sprintf("aged.%d", i), 2*MB); err != nil {
			panic(err)
		}
	}
	for i := 1; i < 12; i += 3 {
		if err := s.FS(0).Unlink(nil, fmt.Sprintf("aged.%d", i)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := s.FS(0).CreateSized(fmt.Sprintf("refill.%d", i), 3*MB); err != nil {
			panic(err)
		}
	}
	if cfg.TierDisk != nil {
		s.DataDisk(1).SetScheduler(disk.SSTF)
		if _, err := s.FS(1).CreateSized("tier", 8*MB); err != nil {
			panic(err)
		}
	}
	return s
}

// exercise runs a deterministic workload and returns a timing-and-state
// transcript. Two machines in identical state must produce identical
// transcripts. Beside the probe, three load processes each compute for
// longer than a timeslice, so on a machine with two CPUs a run queue
// forms and slices expire. On a machine with a tier disk each burst
// follows a read of the tier file; the three processes read at once, at
// offsets out of cylinder order, so the disk's scheduler decides which
// queued read it serves next.
func exercise(s *System, seed uint64) string {
	var load []*sim.Proc
	done := make([]sim.Time, 3)
	for i, off := range []int64{1 * MB, 7 * MB, 2 * MB} {
		load = append(load, s.Spawn(fmt.Sprintf("load.%d", i), 0, func(o *OS) {
			var tier *Fd
			if s.cfg.TierDisk != nil {
				var err error
				if tier, err = o.Open("/mnt1/tier"); err != nil {
					panic(err)
				}
			}
			for j := int64(0); j < 3; j++ {
				if tier != nil {
					if err := tier.Read(off+j*64*1024, 64*1024); err != nil {
						panic(err)
					}
				}
				o.Compute(15 * sim.Millisecond)
			}
			done[i] = o.Now()
		}))
	}
	out := ""
	err := s.Run("probe", func(o *OS) {
		rng := sim.NewRNG(seed)
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("aged.%d", []int{0, 2, 3, 5, 6, 8, 9, 11}[rng.Intn(8)])
			st, err := o.Stat(name)
			if err != nil {
				panic(err)
			}
			fd, err := o.Open(name)
			if err != nil {
				panic(err)
			}
			if err := fd.Read(int64(rng.Intn(4))*512*1024, 256*1024); err != nil {
				panic(err)
			}
			out += fmt.Sprintf("%d:%d:%d\n", st.Ino, o.Now(), s.Cache.Stats().Misses)
		}
	})
	if err != nil {
		panic(err)
	}
	for i, p := range load {
		if err := p.Err(); err != nil {
			panic(err)
		}
		out += fmt.Sprintf("%s done at %d\n", p.Name(), done[i])
	}
	cs := s.Cache.Stats()
	ds := s.DataDisk(0).Stats()
	out += fmt.Sprintf("end now=%d cache=%+v disk.reads=%d disk.seek=%d pool=%d free=%d switches=%d\n",
		s.Engine.Now(), cs, ds.Reads, ds.SeekTime, s.Pool.Used(), s.FS(0).FreeSpace(), s.Engine.ContextSwitches())
	if s.cfg.TierDisk != nil {
		ts := s.DataDisk(1).Stats()
		out += fmt.Sprintf("tier.reads=%d tier.seek=%d tier.queue=%d tier.free=%d\n",
			ts.Reads, ts.SeekTime, ts.QueueTime, s.FS(1).FreeSpace())
	}
	return out
}

// TestForkMatchesColdBuild is the snapshot contract: a trial run on a
// Fork must be byte-identical to the same trial on a cold-built machine
// with the same seed, for every personality, and for a machine with
// simulated CPUs and one with a tier disk.
func TestForkMatchesColdBuild(t *testing.T) {
	fast := disk.FastParams()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"linux22", Config{Personality: Linux22}},
		{"netbsd15", Config{Personality: NetBSD15}},
		{"solaris7", Config{Personality: Solaris7}},
		{"linux22-cpus2", Config{Personality: Linux22, CPUs: 2}},
		{"linux22-tier", Config{Personality: Linux22, TierDisk: &fast}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := buildAged(tc.cfg, 0).Snapshot()
			for _, seed := range []uint64{7, 91} {
				cold := exercise(buildAged(tc.cfg, seed), seed)
				forked := exercise(snap.Fork(seed), seed)
				if cold != forked {
					t.Fatalf("seed %d: forked transcript diverges from cold build\ncold:\n%s\nforked:\n%s", seed, cold, forked)
				}
			}
		})
	}
}

// TestForkIndependence checks forks do not share mutable state: running
// one fork leaves a sibling fork (and the snapshot) untouched.
func TestForkIndependence(t *testing.T) {
	snap := buildAged(Config{Personality: Linux22}, 0).Snapshot()
	a := snap.Fork(1)
	before := exercise(snap.Fork(2), 2)
	_ = exercise(a, 1) // mutate sibling a
	after := exercise(snap.Fork(2), 2)
	if before != after {
		t.Fatal("running one fork perturbed a sibling fork")
	}
}

// TestForkWritesStayPrivate checks that a fork which writes keeps its
// file system to itself. One fork creates, extends and unlinks files,
// taking blocks and inodes both in cylinder groups the snapshot holds
// and in groups it never touched. A sibling fork made before it ran, and
// a fork made after, must then match a fork measured before it ran.
func TestForkWritesStayPrivate(t *testing.T) {
	base := buildAged(Config{Personality: Linux22}, 0)
	snap := base.Snapshot()
	ref, sibling, writer := snap.Fork(2), snap.Fork(2), snap.Fork(1)
	want := forkState(ref)

	err := writer.Run("writer", func(o *OS) {
		for _, dir := range []string{"w1", "w2", "w3"} { // groups 1, 2 and 3
			if err := o.Mkdir(dir); err != nil {
				panic(err)
			}
		}
		for i, path := range []string{"new.0", "new.1", "w1/a", "w3/a", "w3/b"} {
			fd, err := o.Create(path)
			if err != nil {
				panic(err)
			}
			if err := fd.Write(0, int64(i+1)*256*1024); err != nil {
				panic(err)
			}
		}
		fd, err := o.Open("w3/a")
		if err != nil {
			panic(err)
		}
		if err := fd.Write(fd.Size(), 512*1024); err != nil {
			panic(err)
		}
		for _, path := range []string{"new.1", "w3/b", "aged.0"} {
			if err := o.Unlink(path); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	aged, err := base.FS(0).Readdir(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	snapBlocks, snapInodes := groupsHeld(base.FS(0), aged)
	newBlocks, newInodes := groupsHeld(writer.FS(0), []string{"new.0", "w1/a", "w3/a"})
	for _, held := range []struct {
		what      string
		snap, new map[int]bool
	}{{"blocks", snapBlocks, newBlocks}, {"inodes", snapInodes, newInodes}} {
		var shared, fresh bool
		for g := range held.new {
			shared = shared || held.snap[g]
			fresh = fresh || !held.snap[g]
		}
		if !shared || !fresh {
			t.Fatalf("the writer's %s lie in groups %v, the snapshot's in %v; want some in each and some outside", held.what, held.new, held.snap)
		}
	}

	if got := forkState(sibling); got != want {
		t.Fatalf("a write to one fork reached its sibling\nwant:\n%s\ngot:\n%s", want, got)
	}
	if got := forkState(snap.Fork(2)); got != want {
		t.Fatalf("a write to one fork reached the snapshot\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// forkState reports a fork's free space and exercise transcript, then
// what its allocator hands out next: the i-number and blocks of a file
// created in the root's group and in a group no file has used.
func forkState(s *System) string {
	f := s.FS(0)
	out := fmt.Sprintf("free=%d\n", f.FreeSpace()) + exercise(s, 2)
	for _, dir := range []string{"n1", "n2", "n3"} {
		if err := f.Mkdir(nil, dir); err != nil {
			panic(err)
		}
	}
	for _, path := range []string{"next", "n3/next"} {
		if _, err := f.CreateSized(path, MB); err != nil {
			panic(err)
		}
		ino, _ := f.InoOf(path)
		blocks, _ := f.BlocksOf(path)
		out += fmt.Sprintf("%s: ino=%d blocks=%d..%d\n", path, ino, blocks[0], blocks[len(blocks)-1])
	}
	return out
}

// groupsHeld returns the cylinder groups holding the blocks and the
// inodes of paths in f, a file system of the default geometry.
func groupsHeld(f *fs.FS, paths []string) (blocks, inodes map[int]bool) {
	cfg, dp := fs.DefaultConfig(), disk.DefaultParams()
	perGroup := int64(dp.BlocksPerTrack * dp.TracksPerCyl * cfg.GroupCylinders)
	blocks, inodes = map[int]bool{}, map[int]bool{}
	for _, path := range paths {
		ino, err := f.InoOf(path)
		if err != nil {
			panic(err)
		}
		inodes[int(ino-1)/cfg.InodesPerGroup] = true
		bs, _ := f.BlocksOf(path)
		for _, b := range bs {
			blocks[int(b/perGroup)] = true
		}
	}
	return blocks, inodes
}

// BenchmarkFork measures one Fork, and what it allocates, of a bare
// default Linux 2.2 machine and of buildAged's machine.
func BenchmarkFork(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() *System
	}{
		{"bare", func() *System { return New(Config{Personality: Linux22}) }},
		{"aged", func() *System { return buildAged(Config{Personality: Linux22}, 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			snap := bc.build().Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Fork(uint64(i))
			}
		})
	}
}

// TestSnapshotRejectsDirtyState pins the quiescence preconditions.
func TestSnapshotRejectsDirtyState(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Snapshot did not panic", name)
			}
		}()
		f()
	}
	mustPanic("consumed RNG", func() {
		s := New(Config{MemoryMB: 64, KernelMB: 8})
		s.Engine.RNG().Uint64()
		s.Snapshot()
	})
	mustPanic("instrumented", func() {
		s := New(Config{MemoryMB: 64, KernelMB: 8})
		s.EnableTelemetry()
		s.Snapshot()
	})
	mustPanic("live anon memory", func() {
		s := New(Config{MemoryMB: 64, KernelMB: 8})
		if err := s.Run("touch", func(o *OS) {
			m := o.Malloc(int64(o.PageSize()))
			o.Touch(m, 0, true)
		}); err != nil {
			t.Fatal(err)
		}
		s.Snapshot()
	})
}

// TestSnapshotRejectsDiskIO checks the busy-time guard on a disk that
// serves its queue out of arrival order: a fork cannot carry the busy
// time, so a machine whose SSTF data disk has served I/O must not be
// snapshotted.
func TestSnapshotRejectsDiskIO(t *testing.T) {
	s := New(Config{MemoryMB: 64, KernelMB: 8})
	s.DataDisk(0).SetScheduler(disk.SSTF)
	if _, err := s.FS(0).CreateSized("f", MB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("read", func(o *OS) {
		fd, err := o.Open("f")
		if err != nil {
			panic(err)
		}
		if err := fd.Read(0, MB); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "raw disk I/O") {
			t.Fatalf("Snapshot after SSTF disk I/O: panic %q, want the busy-time guard", r)
		}
	}()
	s.Snapshot()
}
