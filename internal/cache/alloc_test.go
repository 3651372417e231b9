package cache

import (
	"testing"
	"unsafe"

	"graybox/internal/disk"
	"graybox/internal/sim"
)

// Allocation guards for the cache hot paths. These are the CI tripwires
// for the arena discipline: once the arena has grown to the working
// set, hits, re-dirtying, and even full insert+evict cycles must not
// allocate. A regression here means a container/list (or equivalent
// per-page heap node) crept back in.

// newAllocCache builds a private cache of cap pages pre-filled to
// capacity, so every subsequent operation runs in steady state.
func newAllocCache(policy Policy, capacity int) *Cache {
	c := New(Config{Capacity: capacity, MaxDirty: 1 << 20}, policy, nil)
	for i := int64(0); i < int64(capacity); i++ {
		c.Insert(nil, pid(1, i), BlockAddr{}, false)
	}
	return c
}

// TestPageRecordSize pins the arena record: a cache of N pages costs
// N records, so a field added here grows every cached page and every
// fork's arena copy.
func TestPageRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(cpage{}); size > 48 {
		t.Errorf("cpage is %d bytes, want at most 48", size)
	}
}

func TestLookupHitAllocs(t *testing.T) {
	for _, p := range []Policy{Clock, LRU, HoldFirst} {
		c := newAllocCache(p, 64)
		i := int64(0)
		allocs := testing.AllocsPerRun(1000, func() {
			if !c.Lookup(pid(1, i%64)) {
				t.Fatal("expected hit")
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Lookup hit allocs/op = %v, want 0", c.policy, allocs)
		}
	}
}

func TestInsertHitAllocs(t *testing.T) {
	c := newAllocCache(Clock, 64)
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		// Re-inserting a present page dirty exercises markDirty and the
		// under-threshold throttle check; re-inserting clean is a pure
		// index hit.
		c.Insert(nil, pid(1, i%64), BlockAddr{}, i%2 == 0)
		i++
	})
	if allocs != 0 {
		t.Errorf("Insert hit allocs/op = %v, want 0", allocs)
	}
}

func TestInsertEvictSteadyStateAllocs(t *testing.T) {
	// A full miss at capacity: policy victim, arena slot recycle, index
	// delete+insert, policy insert. Clean pages only — no I/O, no proc.
	// The cache holds pages 0..63; inserts cycle through pages 64..191,
	// none of which is resident when it comes round again under any of
	// the policies (HoldFirst keeps 0..62 and evicts the newest), so
	// every insert misses. One lap before measuring sizes the file's slot
	// index, so any allocation counted is a per-miss one.
	for _, p := range []Policy{Clock, LRU, HoldFirst} {
		c := newAllocCache(p, 64)
		for i := int64(64); i < 192; i++ {
			c.Insert(nil, pid(1, i), BlockAddr{}, false)
		}
		next := int64(0)
		allocs := testing.AllocsPerRun(1000, func() {
			id := pid(1, 64+next%128)
			if c.slotOf(id) != nilPage {
				t.Fatalf("%s: page %d already cached, want a miss", c.policy, id.Index)
			}
			c.Insert(nil, id, BlockAddr{}, false)
			next++
		})
		if allocs != 0 {
			t.Errorf("%s: insert+evict allocs/op = %v, want 0", c.policy, allocs)
		}
	}
}

func TestMarkDirtyCleanCycleAllocs(t *testing.T) {
	c := newAllocCache(LRU, 64)
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		idx := c.slotOf(pid(1, i%64))
		c.markDirty(idx)
		c.clean(idx)
		i++
	})
	if allocs != 0 {
		t.Errorf("markDirty/clean cycle allocs/op = %v, want 0", allocs)
	}
}

// TestRestoreReservesArenaGrowth checks that a restored arena has the
// room its first doubling would add, up to the cache's capacity, so a
// forked trial that caches more pages than its snapshot held does not
// copy the arena again on its first new page.
func TestRestoreReservesArenaGrowth(t *testing.T) {
	for _, tc := range []struct{ pages, wantCap int }{{0, 0}, {20, 40}, {48, 64}, {64, 64}} {
		cfg := Config{Capacity: 64}
		src := New(cfg, Clock, nil)
		for i := range tc.pages {
			src.Insert(nil, pid(1, int64(i)), BlockAddr{}, false)
		}
		dst := New(cfg, Clock, nil)
		dst.Restore(src.Snapshot(), func(d *disk.Disk) *disk.Disk { return d })
		if got := cap(dst.arena); got != tc.wantCap {
			t.Errorf("%d pages: restored arena capacity %d, want %d", tc.pages, got, tc.wantCap)
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := newAllocCache(Clock, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(pid(1, int64(i)%1024))
	}
}

// BenchmarkInsertEvict inserts pages cycling through twice the cache's
// capacity, so every insert misses and evicts, and once the first lap
// has sized the file's slot index the loop is in steady state: any B/op
// reported is a per-miss allocation.
func BenchmarkInsertEvict(b *testing.B) {
	const capacity = 1024
	c := newAllocCache(Clock, capacity)
	for i := int64(capacity); i < 2*capacity; i++ {
		c.Insert(nil, pid(1, i), BlockAddr{}, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(nil, pid(1, int64(i)%(2*capacity)), BlockAddr{}, false)
	}
}

// BenchmarkCacheRestore forks a warm cache of 24K pages — the size of
// the repository benchmark's scan machine — spread over 96 files on two
// disks, one page in eight dirty: one op is New plus Restore, what each
// forked trial pays for its cache.
func BenchmarkCacheRestore(b *testing.B) {
	const files, pages = 96, 256
	e := sim.NewEngine(1)
	disks := []*disk.Disk{disk.New(e, disk.DefaultParams()), disk.New(e, disk.DefaultParams())}
	cfg := Config{Capacity: files * pages, MaxDirty: files * pages}
	c := New(cfg, Clock, nil)
	for f := int64(0); f < files; f++ {
		for pg := int64(0); pg < pages; pg++ {
			c.Insert(nil, pid(f+1, pg), BlockAddr{Disk: disks[f%2], Block: f*pages + pg}, pg%8 == 0)
		}
	}
	snap := c.Snapshot()
	same := func(d *disk.Disk) *disk.Disk { return d }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(cfg, Clock, nil).Restore(snap, same)
	}
}
