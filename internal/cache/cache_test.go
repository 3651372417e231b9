package cache

import (
	"maps"
	"strings"
	"testing"
	"testing/quick"

	"graybox/internal/disk"
	"graybox/internal/mem"
	"graybox/internal/sim"
	"graybox/internal/telemetry"
)

func pid(ino, idx int64) PageID { return PageID{Ino: ino, Index: idx} }

// --- Replacement order ---
//
// These tests drive each policy through a private cache. Page k
// is the only page of inode k+1, so InvalidateFile removes exactly that
// page, and pages inserted into a fresh cache take arena slots 0, 1, 2…
// in order.

type orderCache struct{ *Cache }

func newOrderCache(policy Policy) orderCache {
	return orderCache{New(Config{Capacity: 1 << 10}, policy, nil)}
}

func orderPage(k int) PageID { return PageID{Ino: int64(k) + 1} }

func (c orderCache) insert(k int) { c.Insert(nil, orderPage(k), BlockAddr{}, false) }
func (c orderCache) touch(k int)  { c.Lookup(orderPage(k)) }
func (c orderCache) remove(k int) { c.InvalidateFile(orderPage(k).Ino) }

// evict evicts one page with EvictOne and returns its number; ok is
// false when the cache had nothing to evict.
func (c orderCache) evict() (k int, ok bool) {
	before := maps.Clone(c.files)
	if !c.EvictOne(nil) {
		return -1, false
	}
	for ino := range before {
		if _, ok := c.files[ino]; !ok {
			return int(ino) - 1, true
		}
	}
	panic("EvictOne evicted no page")
}

// orderLen is the length of the replacement order, counted by walking it.
func (c orderCache) orderLen() int {
	order, broken := replacementOrder(c.Cache)
	if broken != "" {
		panic(broken)
	}
	return len(order)
}

func TestClockEvictsUnreferencedFirst(t *testing.T) {
	c := newOrderCache(Clock)
	for i := 0; i < 4; i++ {
		c.insert(i)
	}
	// One full sweep clears all ref bits; touch page 2 afterwards by
	// taking victims: first victim round-robins from the hand.
	v1, ok := c.evict()
	if !ok {
		t.Fatal("no victim")
	}
	c.touch(2)
	if v1 == 2 {
		t.Skip("victim order picked the touched page first; irrelevant layout")
	}
	// Page 2 is referenced, so the next victims should skip it until
	// only it remains.
	for c.Len() > 1 {
		v, ok := c.evict()
		if !ok {
			t.Fatal("no victim")
		}
		if v == 2 {
			t.Fatalf("evicted referenced page %d while unreferenced pages remained", v)
		}
	}
	v, _ := c.evict()
	if v != 2 {
		t.Errorf("last victim = %d, want page 2", v)
	}
}

func TestClockSequentialEvictionOrder(t *testing.T) {
	// Under one-pass insertion with no touches, clock evicts in insertion
	// order — the "long chunks" property FCCD relies on.
	c := newOrderCache(Clock)
	const n = 50
	for i := 0; i < n; i++ {
		c.insert(i)
	}
	var order []int
	for {
		v, ok := c.evict()
		if !ok {
			break
		}
		order = append(order, v)
	}
	if len(order) != n {
		t.Fatalf("evicted %d pages, want %d", len(order), n)
	}
	for i, k := range order {
		if k != i {
			t.Fatalf("eviction order[%d] = %d, want %d (insertion order)", i, k, i)
		}
	}
}

func TestClockRemoveHandSafety(t *testing.T) {
	c := newOrderCache(Clock)
	c.insert(0)
	c.remove(0)
	if c.orderLen() != 0 {
		t.Fatal("page not removed")
	}
	if _, ok := c.evict(); ok {
		t.Fatal("victim from empty clock")
	}
	c.insert(1)
	c.insert(2)
	c.remove(1)
	v, ok := c.evict()
	if !ok || v != 2 {
		t.Fatalf("victim = %d, %v; want page 2", v, ok)
	}
}

func TestLRUOrder(t *testing.T) {
	c := newOrderCache(LRU)
	c.insert(0)
	c.insert(1)
	c.insert(2)
	c.touch(0) // 0 becomes most recent
	for _, want := range []int{1, 2, 0} {
		if v, _ := c.evict(); v != want {
			t.Errorf("victim = %d, want page %d", v, want)
		}
	}
}

func TestHoldFirstProtectsEarlyResidents(t *testing.T) {
	c := newOrderCache(HoldFirst)
	for i := 0; i < 5; i++ {
		c.insert(i)
	}
	c.touch(4) // touches must not change anything
	for _, want := range []int{4, 3} {
		if v, _ := c.evict(); v != want {
			t.Errorf("victim = %d, want page %d", v, want)
		}
	}
}

// TestPolicySlotReuse: a slot freed by an eviction or an invalidation
// and handed to a new page must be ordered afresh, as the cache's free
// list reuses slots.
func TestPolicySlotReuse(t *testing.T) {
	for _, p := range []Policy{Clock, LRU, HoldFirst} {
		c := newOrderCache(p)
		c.insert(0)
		c.insert(1)
		v, _ := c.evict()
		freed := int32(v) // a fresh cache gave page k slot k
		c.remove(v)       // already gone: a no-op
		c.insert(2)
		if got := c.slotOf(orderPage(2)); got != freed {
			t.Fatalf("%v: page 2 took slot %d, want the freed slot %d", p, got, freed)
		}
		c.remove(1 - v)
		if c.orderLen() != 1 {
			t.Fatalf("%v: order length = %d, want 1", p, c.orderLen())
		}
		if got, ok := c.evict(); !ok || got != 2 {
			t.Errorf("%v: victim = %d, %v; want page 2 in reused slot %d", p, got, ok, freed)
		}
	}
}

func TestPolicyLenConsistencyProperty(t *testing.T) {
	for _, p := range []Policy{Clock, LRU, HoldFirst} {
		f := func(ops []uint8) bool {
			c := newOrderCache(p)
			present := map[int]bool{}
			next := 0 // evicted slots are reused first, by the arena's free list
			for _, op := range ops {
				switch op % 3 {
				case 0: // insert
					c.insert(next)
					present[next] = true
					next++
				case 1: // victim
					if k, ok := c.evict(); ok {
						if !present[k] {
							return false
						}
						delete(present, k)
					}
				case 2: // touch something arbitrary
					c.touch(int(op))
				}
				if c.orderLen() != len(present) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

// --- Cache integration ---

type harness struct {
	e    *sim.Engine
	d    *disk.Disk
	pool *mem.Pool
	c    *Cache
}

// newHarness builds a cache on one disk: a private cache of
// cfg.Capacity frames when poolFrames is 0, else a cache backed by a
// pool of poolFrames frames.
func newHarness(t *testing.T, cfg Config, policy Policy, poolFrames int) *harness {
	t.Helper()
	e := sim.NewEngine(1)
	d := disk.New(e, disk.DefaultParams())
	var pool *mem.Pool
	if poolFrames > 0 {
		pool = mem.NewPool(poolFrames)
	}
	c := New(cfg, policy, pool)
	if pool != nil {
		pool.AddShrinker(c)
	}
	return &harness{e: e, d: d, pool: pool, c: c}
}

func (h *harness) run(fn func(p *sim.Proc)) {
	pr := h.e.Go("t", fn)
	h.e.Run()
	if pr.Err() != nil {
		panic(pr.Err())
	}
}

func (h *harness) addr(b int64) BlockAddr { return BlockAddr{Disk: h.d, Block: b} }

func TestCacheInsertLookup(t *testing.T) {
	h := newHarness(t, Config{}, Clock, 100)
	h.run(func(p *sim.Proc) {
		h.c.Insert(p, pid(1, 0), h.addr(10), false)
		if !h.c.Lookup(pid(1, 0)) {
			t.Error("inserted page not found")
		}
		if h.c.Lookup(pid(1, 1)) {
			t.Error("phantom page found")
		}
	})
	st := h.c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheCapacityNeverExceeded(t *testing.T) {
	h := newHarness(t, Config{Capacity: 8}, Clock, 0)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 50; i++ {
			h.c.Insert(p, pid(1, i), h.addr(i), false)
			if h.c.Len() > 8 {
				t.Fatalf("cache grew to %d pages, cap 8", h.c.Len())
			}
		}
	})
	if h.c.Stats().Evictions != 42 {
		t.Errorf("evictions = %d, want 42", h.c.Stats().Evictions)
	}
}

func TestCachePrivateFrames(t *testing.T) {
	h := newHarness(t, Config{Capacity: 4}, LRU, 0)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 10; i++ {
			h.c.Insert(p, pid(1, i), h.addr(i), false)
		}
	})
	if h.c.Len() != 4 {
		t.Errorf("cache len = %d, want 4", h.c.Len())
	}
	if h.c.Held() != 0 {
		t.Errorf("private cache Held = %d, want 0 pool frames", h.c.Held())
	}
}

func TestCacheEvictionViaPoolPressure(t *testing.T) {
	h := newHarness(t, Config{FloorPages: 2}, Clock, 10)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 10; i++ {
			h.c.Insert(p, pid(1, i), h.addr(i), false)
		}
		// Pool is now full of cache pages. An external grab must squeeze
		// the cache.
		h.pool.GrabFrame(p)
		if h.c.Len() != 9 {
			t.Errorf("cache len = %d after pool pressure, want 9", h.c.Len())
		}
		// Squeeze down to the floor.
		for i := 0; i < 7; i++ {
			h.pool.GrabFrame(p)
		}
		if h.c.Len() != 2 {
			t.Errorf("cache len = %d, want floor 2", h.c.Len())
		}
	})
}

func TestDirtyWritebackOnEvict(t *testing.T) {
	h := newHarness(t, Config{Capacity: 2}, Clock, 0)
	h.run(func(p *sim.Proc) {
		h.c.Insert(p, pid(1, 0), h.addr(0), true)
		h.c.Insert(p, pid(1, 1), h.addr(1), false)
		h.c.Insert(p, pid(1, 2), h.addr(2), false) // evicts dirty page 0
	})
	st := h.c.Stats()
	if st.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.Writebacks)
	}
	if h.d.Stats().Writes != 1 {
		t.Errorf("disk writes = %d, want 1", h.d.Stats().Writes)
	}
}

func TestDirtyThrottle(t *testing.T) {
	h := newHarness(t, Config{MaxDirty: 4}, Clock, 100)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 12; i++ {
			h.c.Insert(p, pid(1, i), h.addr(i), true)
		}
	})
	st := h.c.Stats()
	if st.ThrottleFlushes != 8 {
		t.Errorf("throttle flushes = %d, want 8", st.ThrottleFlushes)
	}
}

func TestSyncWritesAllDirty(t *testing.T) {
	h := newHarness(t, Config{}, Clock, 100)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 5; i++ {
			h.c.Insert(p, pid(1, i), h.addr(i), true)
		}
		h.c.Sync(p)
	})
	if w := h.d.Stats().Writes; w != 5 {
		t.Errorf("disk writes = %d, want 5", w)
	}
	if h.c.Len() != 5 {
		t.Errorf("Sync dropped pages: len = %d, want 5", h.c.Len())
	}
}

func TestInvalidateFile(t *testing.T) {
	h := newHarness(t, Config{}, Clock, 100)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 3; i++ {
			h.c.Insert(p, pid(7, i), h.addr(i), true)
		}
		h.c.Insert(p, pid(8, 0), h.addr(9), false)
		free := h.pool.Free()
		h.c.InvalidateFile(7)
		if h.pool.Free() != free+3 {
			t.Errorf("frames not returned: free %d -> %d", free, h.pool.Free())
		}
	})
	if h.c.ResidentPages(7) != 0 {
		t.Error("file 7 pages remain")
	}
	if h.c.ResidentPages(8) != 1 {
		t.Error("file 8 page lost")
	}
	if h.d.Stats().Writes != 0 {
		t.Error("invalidate should not write back")
	}
}

func TestDropAndPresenceBitmap(t *testing.T) {
	h := newHarness(t, Config{}, Clock, 100)
	h.run(func(p *sim.Proc) {
		h.c.Insert(p, pid(1, 0), h.addr(0), false)
		h.c.Insert(p, pid(1, 2), h.addr(2), false)
	})
	bm := h.c.PresenceBitmap(1, 4)
	want := []bool{true, false, true, false}
	for i := range want {
		if bm[i] != want[i] {
			t.Errorf("bitmap[%d] = %v, want %v", i, bm[i], want[i])
		}
	}
	h.c.Drop()
	if h.c.Len() != 0 || h.pool.Used() != 0 {
		t.Errorf("after Drop: len=%d used=%d", h.c.Len(), h.pool.Used())
	}
}

func TestReinsertExistingPageIsNoop(t *testing.T) {
	h := newHarness(t, Config{}, Clock, 100)
	h.run(func(p *sim.Proc) {
		h.c.Insert(p, pid(1, 0), h.addr(0), false)
		used := h.pool.Used()
		h.c.Insert(p, pid(1, 0), h.addr(0), false)
		if h.pool.Used() != used {
			t.Error("duplicate insert grabbed a frame")
		}
		h.c.Insert(p, pid(1, 0), h.addr(0), true) // upgrade to dirty
	})
	h2 := h.e.Go("sync", func(p *sim.Proc) { h.c.Sync(p) })
	h.e.WaitAll(h2)
	if h.d.Stats().Writes != 1 {
		t.Errorf("writes = %d, want 1 (dirty upgrade)", h.d.Stats().Writes)
	}
}

// TestDirtyGaugeFollowsReinsert: re-inserting a cached page dirty must
// refresh the dirty_pages gauge even when no throttle write follows.
func TestDirtyGaugeFollowsReinsert(t *testing.T) {
	h := newHarness(t, Config{}, Clock, 100)
	r := telemetry.NewRegistry("t", h.e.NowNS)
	h.c.Instrument(r)
	h.run(func(p *sim.Proc) {
		h.c.Insert(p, pid(1, 0), h.addr(0), false)
		h.c.Insert(p, pid(1, 0), h.addr(0), true)
	})
	if got := r.Gauge("cache.clock.dirty_pages").Value(); got != 1 {
		t.Errorf("dirty_pages gauge = %d after a dirty re-insert, want 1", got)
	}
}

// TestConcurrentSameInsertFoldsIntoExisting: Insert parks its caller while
// obtaining a frame (eviction write-back, pool reclaim), and during that
// sleep another process may cache the same page. The resumed insert must
// fold into the existing record instead of registering the page with the
// replacement policy a second time — a duplicate policy entry later
// surfaces as a victim the index no longer knows, which panics EvictOne.
// Regression test: the SMP scheduler's contended Compute made this
// interleaving reachable in the noise sweep. The cache is pool-backed,
// the Linux path: a pool of two frames makes the third insert reclaim.
func TestConcurrentSameInsertFoldsIntoExisting(t *testing.T) {
	h := newHarness(t, Config{}, LRU, 2)
	dup := pid(9, 9)
	a := h.e.Go("a", func(p *sim.Proc) {
		h.c.Insert(p, pid(1, 0), h.addr(0), true) // dirty: its eviction parks
		h.c.Insert(p, pid(1, 1), h.addr(1), false)
		// Evicts LRU page 0 and parks in its write-back; the racing
		// insert below lands inside that sleep.
		h.c.Insert(p, dup, h.addr(9), false)
	})
	b := h.e.Go("b", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		if h.c.Contains(dup) {
			t.Error("page cached before the racing insert ran")
		}
		h.c.Insert(p, dup, h.addr(9), false)
	})
	h.e.Run()
	if a.Err() != nil || b.Err() != nil {
		t.Fatalf("proc errors: a=%v b=%v", a.Err(), b.Err())
	}
	if !h.c.Contains(dup) {
		t.Fatal("racing page not cached")
	}
	if got, want := (orderCache{h.c}).orderLen(), h.c.Len(); got != want {
		t.Fatalf("replacement order holds %d pages, index has %d (duplicate insert)", got, want)
	}
	// Draining every page through the policy must agree with the index —
	// with a duplicate, the second victim for dup is not in the cache.
	h.run(func(p *sim.Proc) {
		for h.c.EvictOne(p) {
		}
	})
	if n := (orderCache{h.c}).orderLen(); h.c.Len() != 0 || n != 0 {
		t.Errorf("after draining: index=%d order=%d, want 0/0", h.c.Len(), n)
	}
}

// TestNegativePageIndexPanics: page numbers index a per-file slot slice,
// so a negative one is a caller bug and must fail loudly at the package
// boundary rather than read as "not cached".
func TestNegativePageIndexPanics(t *testing.T) {
	h := newHarness(t, Config{}, Clock, 100)
	for name, call := range map[string]func(){
		"Insert":       func() { h.c.Insert(nil, pid(1, -1), h.addr(0), false) },
		"Lookup":       func() { h.c.Lookup(pid(1, -1)) },
		"Contains":     func() { h.c.Contains(pid(3, -2)) },
		"ContainsPage": func() { h.c.ContainsPage(1, -1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "negative page index") {
					t.Errorf("%s: recovered %q, want a negative page index panic", name, msg)
				}
			}()
			call()
		}()
	}
	if h.c.Len() != 0 || h.pool.Used() != 0 {
		t.Errorf("after the panics: len=%d used=%d, want nothing cached", h.c.Len(), h.pool.Used())
	}
}

// wantPanic runs call and reports unless it panics with a message
// containing want.
func wantPanic(t *testing.T, want string, call func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("recovered %q, want a panic containing %q", msg, want)
		}
	}()
	call()
}

// TestRestorePolicyMismatchPanics: a snapshot's replacement order is read
// by its own policy's rules, so restoring it into a cache with another
// policy is a caller bug and must fail loudly, leaving the cache empty.
func TestRestorePolicyMismatchPanics(t *testing.T) {
	src := newOrderCache(Clock)
	src.insert(0)
	snap := src.Snapshot()
	for _, p := range []Policy{LRU, HoldFirst} {
		dst := newOrderCache(p)
		wantPanic(t, "snapshot with policy clock into a cache with policy "+p.String(), func() {
			dst.Restore(snap, func(d *disk.Disk) *disk.Disk { return d })
		})
		if dst.Len() != 0 || dst.hand != nilPage {
			t.Errorf("%v: after the panic: len=%d hand=%d, want an empty cache", p, dst.Len(), dst.hand)
		}
	}
}

func TestNewUnknownPolicyPanics(t *testing.T) {
	wantPanic(t, "unknown policy 3", func() {
		New(Config{Capacity: 4}, Policy(3), nil)
	})
}

// TestNewFrameOwnershipPanics: a cache either owns Capacity frames or
// takes its frames from a pool, which sizes it. A cache with neither, or
// with both, is a caller bug.
func TestNewFrameOwnershipPanics(t *testing.T) {
	wantPanic(t, "without a pool needs a positive capacity, not 0", func() {
		New(Config{}, Clock, nil)
	})
	wantPanic(t, "without a pool needs a positive capacity, not -1", func() {
		New(Config{Capacity: -1}, LRU, nil)
	})
	wantPanic(t, "sized by its pool, not by capacity 4", func() {
		New(Config{Capacity: 4}, Clock, mem.NewPool(8))
	})
}
