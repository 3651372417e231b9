package mem

import (
	"testing"

	"graybox/internal/sim"
)

// fakeShrinker releases frames instantly (no I/O) for pool unit tests.
type fakeShrinker struct {
	name   string
	held   int
	floor  int
	pool   *Pool
	evicts int
}

func (f *fakeShrinker) Name() string { return f.name }
func (f *fakeShrinker) Held() int    { return f.held }
func (f *fakeShrinker) Floor() int   { return f.floor }
func (f *fakeShrinker) EvictOne(p *sim.Proc) bool {
	if f.held == 0 {
		return false
	}
	f.held--
	f.evicts++
	f.pool.ReturnFrames(1)
	return true
}

func (f *fakeShrinker) grab(p *sim.Proc, n int) {
	for i := 0; i < n; i++ {
		f.pool.GrabFrame(p)
		f.held++
	}
}

func TestPoolBasicAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	pl := NewPool(10)
	if pl.Capacity() != 10 || pl.Free() != 10 || pl.Used() != 0 {
		t.Fatalf("fresh pool: cap=%d free=%d used=%d", pl.Capacity(), pl.Free(), pl.Used())
	}
	e.Go("p", func(p *sim.Proc) {
		pl.GrabFrame(p)
		pl.GrabFrame(p)
	})
	e.Run()
	if pl.Used() != 2 || pl.Free() != 8 {
		t.Errorf("after 2 grabs: used=%d free=%d", pl.Used(), pl.Free())
	}
	pl.ReturnFrames(2)
	if pl.Used() != 0 {
		t.Errorf("after return: used=%d", pl.Used())
	}
}

func TestTryGrabFrame(t *testing.T) {
	pl := NewPool(1)
	if !pl.TryGrabFrame() {
		t.Fatal("first TryGrabFrame should succeed")
	}
	if pl.TryGrabFrame() {
		t.Fatal("second TryGrabFrame should fail")
	}
}

func TestReclaimPreferenceOrder(t *testing.T) {
	e := sim.NewEngine(1)
	pl := NewPool(10)
	cache := &fakeShrinker{name: "cache", pool: pl, floor: 2}
	anon := &fakeShrinker{name: "anon", pool: pl}
	pl.AddShrinker(cache)
	pl.AddShrinker(anon)
	e.Go("p", func(p *sim.Proc) {
		cache.grab(p, 6)
		anon.grab(p, 4)
		// Pool now full. Demand 5 more frames: cache should give up 4
		// (down to its floor of 2), then anon gives 1.
		for i := 0; i < 5; i++ {
			pl.GrabFrame(p)
		}
	})
	e.Run()
	if cache.evicts != 4 {
		t.Errorf("cache evictions = %d, want 4", cache.evicts)
	}
	if anon.evicts != 1 {
		t.Errorf("anon evictions = %d, want 1", anon.evicts)
	}
	if cache.held != 2 {
		t.Errorf("cache held = %d, want floor 2", cache.held)
	}
}

func TestLastDitchReclaimIgnoresFloor(t *testing.T) {
	e := sim.NewEngine(1)
	pl := NewPool(4)
	cache := &fakeShrinker{name: "cache", pool: pl, floor: 4}
	pl.AddShrinker(cache)
	e.Go("p", func(p *sim.Proc) {
		cache.grab(p, 4)
		pl.GrabFrame(p) // must squeeze cache below its floor
	})
	e.Run()
	if cache.evicts != 1 {
		t.Errorf("evicts = %d, want 1 (floor overridden as last resort)", cache.evicts)
	}
}

func TestOutOfFramesPanics(t *testing.T) {
	e := sim.NewEngine(1)
	pl := NewPool(2)
	p := e.Go("p", func(p *sim.Proc) {
		pl.GrabFrame(p)
		pl.GrabFrame(p)
		pl.GrabFrame(p) // no shrinkers: must panic
	})
	e.Run()
	if p.Err() == nil {
		t.Fatal("expected out-of-frames panic to be captured")
	}
}

func TestReturnTooManyPanics(t *testing.T) {
	pl := NewPool(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.ReturnFrames(1)
}

func TestUsageSummary(t *testing.T) {
	e := sim.NewEngine(1)
	pl := NewPool(10)
	cache := &fakeShrinker{name: "cache", pool: pl}
	pl.AddShrinker(cache)
	e.Go("p", func(p *sim.Proc) { cache.grab(p, 3) })
	e.Run()
	u := pl.Usage()
	if u["cache"] != 3 || u["free"] != 7 || u["other"] != 0 {
		t.Errorf("usage = %v", u)
	}
}
