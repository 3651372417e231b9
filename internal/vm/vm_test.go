package vm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"graybox/internal/disk"
	"graybox/internal/mem"
	"graybox/internal/sim"
)

type world struct {
	e    *sim.Engine
	pool *mem.Pool
	swap *disk.Disk
	vm   *VM
}

func newWorld(frames int) *world {
	e := sim.NewEngine(1)
	swap := disk.New(e, disk.DefaultParams())
	pool := mem.NewPool(frames)
	v := New(pool, swap, 0, DefaultConfig())
	pool.AddShrinker(v)
	return &world{e: e, pool: pool, swap: swap, vm: v}
}

func (w *world) run(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	pr := w.e.Go("test", fn)
	w.e.Run()
	if pr.Err() != nil {
		t.Fatal(pr.Err())
	}
}

func TestZeroFillOnFirstWrite(t *testing.T) {
	w := newWorld(100)
	as := w.vm.NewSpace()
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(10)
		if as.Resident() != 0 {
			t.Error("pages resident before touch")
		}
		for i := int64(0); i < 10; i++ {
			as.Touch(p, r, i, true)
		}
		if as.Resident() != 10 {
			t.Errorf("resident = %d, want 10", as.Resident())
		}
	})
	if w.vm.Stats().ZeroFills != 10 {
		t.Errorf("zero fills = %d, want 10", w.vm.Stats().ZeroFills)
	}
	if w.pool.Used() != 10 {
		t.Errorf("pool used = %d, want 10", w.pool.Used())
	}
}

func TestZeroPageReadAllocatesNothing(t *testing.T) {
	w := newWorld(100)
	as := w.vm.NewSpace()
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(5)
		for i := int64(0); i < 5; i++ {
			as.Touch(p, r, i, false) // reads
		}
		if as.Resident() != 0 {
			t.Errorf("reads made %d pages resident; COW zero page expected", as.Resident())
		}
	})
	if w.pool.Used() != 0 {
		t.Error("zero-page reads consumed frames")
	}
}

func TestTouchResidentIsFast(t *testing.T) {
	w := newWorld(100)
	as := w.vm.NewSpace()
	var first, second sim.Time
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(1)
		start := p.Now()
		as.Touch(p, r, 0, true)
		first = p.Now() - start
		start = p.Now()
		as.Touch(p, r, 0, true)
		second = p.Now() - start
	})
	if second >= first {
		t.Errorf("resident touch %v not faster than fault %v", second, first)
	}
	if second > sim.Microsecond {
		t.Errorf("resident touch %v, want sub-microsecond", second)
	}
}

func TestOvercommitSwapsOut(t *testing.T) {
	w := newWorld(50)
	as := w.vm.NewSpace()
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(80)
		for i := int64(0); i < 80; i++ {
			as.Touch(p, r, i, true)
		}
		if as.Resident() != 50 {
			t.Errorf("resident = %d, want 50 (pool size)", as.Resident())
		}
	})
	st := w.vm.Stats()
	if st.SwapOuts != 30 {
		t.Errorf("swap-outs = %d, want 30", st.SwapOuts)
	}
	if w.swap.Stats().Writes != 30 {
		t.Errorf("swap disk writes = %d, want 30", w.swap.Stats().Writes)
	}
}

func TestSwapInRestoresResidency(t *testing.T) {
	w := newWorld(10)
	as := w.vm.NewSpace()
	var swapInTime sim.Time
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(15)
		for i := int64(0); i < 15; i++ {
			as.Touch(p, r, i, true)
		}
		// Pages 0..4 were swapped out (clock order). Touch page 0 again.
		start := p.Now()
		as.Touch(p, r, 0, true)
		swapInTime = p.Now() - start
	})
	if w.vm.Stats().SwapIns != 1 {
		t.Errorf("swap-ins = %d, want 1", w.vm.Stats().SwapIns)
	}
	if swapInTime < 100*sim.Microsecond {
		t.Errorf("swap-in took %v, want disk-scale time", swapInTime)
	}
}

func TestClockGivesSecondChance(t *testing.T) {
	w := newWorld(10)
	as := w.vm.NewSpace()
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(12)
		for i := int64(0); i < 10; i++ {
			as.Touch(p, r, i, true)
		}
		// Re-touch pages 0 and 1: they move behind the hand.
		as.Touch(p, r, 0, true)
		as.Touch(p, r, 1, true)
		// Two more allocations must evict pages 2 and 3, not 0 and 1.
		as.Touch(p, r, 10, true)
		as.Touch(p, r, 11, true)
		for _, idx := range []int64{0, 1} {
			if !as.regions[r-1][idx].resident() {
				t.Errorf("recently touched page %d was evicted", idx)
			}
		}
		for _, idx := range []int64{2, 3} {
			if as.regions[r-1][idx].resident() {
				t.Errorf("cold page %d survived", idx)
			}
		}
	})
}

func TestFreeReturnsFramesAndSwap(t *testing.T) {
	w := newWorld(10)
	as := w.vm.NewSpace()
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(15)
		for i := int64(0); i < 15; i++ {
			as.Touch(p, r, i, true)
		}
		as.Free(r)
		if w.pool.Used() != 0 {
			t.Errorf("pool used = %d after Free, want 0", w.pool.Used())
		}
		if as.Resident() != 0 {
			t.Errorf("resident = %d after Free", as.Resident())
		}
		// All swap slots recycled: allocate and overcommit again without
		// growing swapNext unboundedly.
		free := len(w.vm.swapFree)
		if free != 5 {
			t.Errorf("free swap slots = %d, want 5", free)
		}
	})
}

func TestReleaseFreesEverything(t *testing.T) {
	w := newWorld(100)
	as := w.vm.NewSpace()
	w.run(t, func(p *sim.Proc) {
		r1 := as.Alloc(5)
		r2 := as.Alloc(5)
		for i := int64(0); i < 5; i++ {
			as.Touch(p, r1, i, true)
			as.Touch(p, r2, i, true)
		}
		as.Release()
	})
	if w.pool.Used() != 0 {
		t.Errorf("pool used = %d after Release", w.pool.Used())
	}
	for i, pages := range as.regions {
		if pages != nil {
			t.Errorf("region %d survives Release", i+1)
		}
	}
}

func TestTwoSpacesCompete(t *testing.T) {
	w := newWorld(100)
	a := w.vm.NewSpace()
	b := w.vm.NewSpace()
	w.run(t, func(p *sim.Proc) {
		ra := a.Alloc(60)
		for i := int64(0); i < 60; i++ {
			a.Touch(p, ra, i, true)
		}
		rb := b.Alloc(60)
		for i := int64(0); i < 60; i++ {
			b.Touch(p, rb, i, true)
		}
		// b's allocation displaced a's cold pages.
		if a.Resident()+b.Resident() != 100 {
			t.Errorf("resident a=%d b=%d, want total 100", a.Resident(), b.Resident())
		}
		if b.Resident() != 60 {
			t.Errorf("b resident = %d, want all 60 (freshly touched)", b.Resident())
		}
	})
}

func TestResidentInvariantProperty(t *testing.T) {
	// Random touch/free workloads never exceed pool capacity and always
	// keep a just-written page resident.
	w := newWorld(32)
	as := w.vm.NewSpace()
	rng := sim.NewRNG(9)
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(64)
		for step := 0; step < 2000; step++ {
			idx := rng.Int63n(64)
			as.Touch(p, r, idx, true)
			if !as.regions[r-1][idx].resident() {
				t.Fatalf("page %d not resident immediately after write", idx)
			}
			if as.Resident() > 32 {
				t.Fatalf("resident %d exceeds pool capacity", as.Resident())
			}
		}
	})
}

// TestNewRejectsSwapBeyondInt32 pins the bound a page's int32 swap
// field sets on the swap device.
func TestNewRejectsSwapBeyondInt32(t *testing.T) {
	e := sim.NewEngine(1)
	swap := disk.New(e, disk.DefaultParams())
	pool := mem.NewPool(10)
	New(pool, swap, math.MaxInt32, DefaultConfig()) // the most a page can name
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "swap slots") {
			t.Fatalf("New with 2^31 swap slots: panic %q, want one naming the swap slots", msg)
		}
	}()
	New(pool, swap, math.MaxInt32+1, DefaultConfig())
}

func TestAllocBadArgsPanic(t *testing.T) {
	w := newWorld(10)
	as := w.vm.NewSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	as.Alloc(0)
}

// TestUnknownRegionPanics checks that every region operation rejects an
// id naming no live region of the space — 0, an id never allocated, and
// a freed region — with a panic naming the operation and the id.
func TestUnknownRegionPanics(t *testing.T) {
	w := newWorld(10)
	as := w.vm.NewSpace()
	live := as.Alloc(2)
	freed := as.Alloc(1)
	as.Free(freed)
	ops := []struct {
		name string
		call func(RegionID)
	}{
		// The lookup fails before Touch uses its process.
		{"Touch", func(id RegionID) { as.Touch(nil, id, 0, true) }},
		{"Free", func(id RegionID) { as.Free(id) }},
		{"Pages", func(id RegionID) { as.Pages(id) }},
		{"ResidentIn", func(id RegionID) { as.ResidentIn(id) }},
	}
	for _, op := range ops {
		for _, id := range []RegionID{0, freed + 1, freed} {
			want := fmt.Sprintf("vm: %s of unknown region %d", op.name, id)
			got := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				op.call(id)
				return
			}()
			if got != want {
				t.Errorf("%s(%d): panic %q, want %q", op.name, id, got, want)
			}
		}
	}
	if n := as.Pages(live); n != 2 {
		t.Errorf("live region has %d pages after the failed calls, want 2", n)
	}
}
