package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"graybox/internal/disk"
	"graybox/internal/mem"
	"graybox/internal/sim"
	"graybox/internal/telemetry"
)

func pid(ino, idx int64) PageID { return PageID{Ino: ino, Index: idx} }

// --- Policy unit tests ---
//
// Policies name pages by arena slot; these tests use slots 0..n-1 as if
// a cache had inserted pages into a fresh arena.

func TestClockEvictsUnreferencedFirst(t *testing.T) {
	c := NewClock()
	for i := int32(0); i < 4; i++ {
		c.Inserted(i)
	}
	// One full sweep clears all ref bits; touch slot 2 afterwards by
	// taking victims: first victim round-robins from the hand.
	v1, ok := c.Victim()
	if !ok {
		t.Fatal("no victim")
	}
	c.Touched(2)
	if v1 == 2 {
		t.Skip("victim order picked the touched page first; irrelevant layout")
	}
	// Slot 2 is referenced, so the next victims should skip it until
	// only it remains.
	for c.Len() > 1 {
		v, ok := c.Victim()
		if !ok {
			t.Fatal("no victim")
		}
		if v == 2 {
			t.Fatalf("evicted referenced slot %d while unreferenced pages remained", v)
		}
	}
	v, _ := c.Victim()
	if v != 2 {
		t.Errorf("last victim = %d, want slot 2", v)
	}
}

func TestClockSequentialEvictionOrder(t *testing.T) {
	// Under one-pass insertion with no touches, clock evicts in insertion
	// order — the "long chunks" property FCCD relies on.
	c := NewClock()
	const n = 50
	for i := int32(0); i < n; i++ {
		c.Inserted(i)
	}
	var order []int32
	for {
		v, ok := c.Victim()
		if !ok {
			break
		}
		order = append(order, v)
	}
	if len(order) != n {
		t.Fatalf("evicted %d pages, want %d", len(order), n)
	}
	for i, slot := range order {
		if slot != int32(i) {
			t.Fatalf("eviction order[%d] = %d, want %d (insertion order)", i, slot, i)
		}
	}
}

func TestClockRemoveHandSafety(t *testing.T) {
	c := NewClock()
	c.Inserted(0)
	c.Removed(0)
	if c.Len() != 0 {
		t.Fatal("page not removed")
	}
	if _, ok := c.Victim(); ok {
		t.Fatal("victim from empty clock")
	}
	c.Inserted(1)
	c.Inserted(2)
	c.Removed(1)
	v, ok := c.Victim()
	if !ok || v != 2 {
		t.Fatalf("victim = %d, %v; want slot 2", v, ok)
	}
}

func TestLRUOrder(t *testing.T) {
	l := NewLRU()
	l.Inserted(0)
	l.Inserted(1)
	l.Inserted(2)
	l.Touched(0) // 0 becomes most recent
	for _, want := range []int32{1, 2, 0} {
		if v, _ := l.Victim(); v != want {
			t.Errorf("victim = %d, want slot %d", v, want)
		}
	}
}

func TestHoldFirstProtectsEarlyResidents(t *testing.T) {
	h := NewHoldFirst()
	for i := int32(0); i < 5; i++ {
		h.Inserted(i)
	}
	h.Touched(4) // touches must not change anything
	for _, want := range []int32{4, 3} {
		if v, _ := h.Victim(); v != want {
			t.Errorf("victim = %d, want slot %d", v, want)
		}
	}
}

// TestPolicySlotReuse: a slot freed by Victim or Removed and handed to a
// new page must be tracked afresh, as the cache's free list reuses slots.
func TestPolicySlotReuse(t *testing.T) {
	for _, p := range []Policy{NewClock(), NewLRU(), NewHoldFirst()} {
		p.Inserted(0)
		p.Inserted(1)
		v, _ := p.Victim()
		p.Removed(v) // already gone: a no-op
		p.Inserted(v)
		p.Removed(1 - v)
		if p.Len() != 1 {
			t.Fatalf("%s: len = %d, want 1", p.Name(), p.Len())
		}
		if got, ok := p.Victim(); !ok || got != v {
			t.Errorf("%s: victim = %d, %v; want reused slot %d", p.Name(), got, ok, v)
		}
	}
}

func TestPolicyLenConsistencyProperty(t *testing.T) {
	mk := map[string]func() Policy{
		"clock":     func() Policy { return NewClock() },
		"lru":       func() Policy { return NewLRU() },
		"holdfirst": func() Policy { return NewHoldFirst() },
	}
	for name, ctor := range mk {
		f := func(ops []uint8) bool {
			p := ctor()
			present := map[int32]bool{}
			var free []int32 // slots given back, reused first like the arena's
			next := int32(0)
			for _, op := range ops {
				switch op % 3 {
				case 0: // insert
					slot := next
					if n := len(free); n > 0 {
						slot, free = free[n-1], free[:n-1]
					} else {
						next++
					}
					p.Inserted(slot)
					present[slot] = true
				case 1: // victim
					if slot, ok := p.Victim(); ok {
						if !present[slot] {
							return false
						}
						delete(present, slot)
						free = append(free, slot)
					}
				case 2: // touch something arbitrary
					p.Touched(int32(op))
				}
				if p.Len() != len(present) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
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

func newHarness(t *testing.T, cfg Config, policy Policy, poolFrames int) *harness {
	t.Helper()
	e := sim.NewEngine(1)
	d := disk.New(e, disk.DefaultParams())
	var pool *mem.Pool
	if !cfg.PrivateFrames {
		pool = mem.NewPool(e, poolFrames)
	}
	c := New(e, cfg, policy, pool)
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
	h := newHarness(t, Config{}, NewClock(), 100)
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
	h := newHarness(t, Config{Capacity: 8}, NewClock(), 100)
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
	h := newHarness(t, Config{Capacity: 4, PrivateFrames: true}, NewLRU(), 0)
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
	h := newHarness(t, Config{FloorPages: 2}, NewClock(), 10)
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
	h := newHarness(t, Config{Capacity: 2}, NewClock(), 10)
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
	h := newHarness(t, Config{MaxDirty: 4}, NewClock(), 100)
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
	h := newHarness(t, Config{}, NewClock(), 100)
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
	h := newHarness(t, Config{}, NewClock(), 100)
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
	h := newHarness(t, Config{}, NewClock(), 100)
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
	h := newHarness(t, Config{}, NewClock(), 100)
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
	h := newHarness(t, Config{}, NewClock(), 100)
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
// interleaving reachable in the noise sweep.
func TestConcurrentSameInsertFoldsIntoExisting(t *testing.T) {
	h := newHarness(t, Config{Capacity: 2}, NewLRU(), 100)
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
	if got, want := h.c.policy.Len(), h.c.Len(); got != want {
		t.Fatalf("policy tracks %d pages, index has %d (duplicate insert)", got, want)
	}
	// Draining every page through the policy must agree with the index —
	// with a duplicate, the second victim for dup is not in the cache.
	h.run(func(p *sim.Proc) {
		for h.c.EvictOne(p) {
		}
	})
	if h.c.Len() != 0 || h.c.policy.Len() != 0 {
		t.Errorf("after draining: index=%d policy=%d, want 0/0", h.c.Len(), h.c.policy.Len())
	}
}

// TestNegativePageIndexPanics: page numbers index a per-file slot slice,
// so a negative one is a caller bug and must fail loudly at the package
// boundary rather than read as "not cached".
func TestNegativePageIndexPanics(t *testing.T) {
	h := newHarness(t, Config{}, NewClock(), 100)
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
