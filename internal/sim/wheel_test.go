package sim

import (
	"testing"
)

// wheelEngine returns an engine whose inserts always consider the wheel,
// regardless of the live-event population.
func wheelEngine(seed uint64) *Engine {
	e := NewEngine(seed)
	e.wheelMin = 0
	return e
}

// heapEngine returns an engine whose inserts never use the wheel.
func heapEngine(seed uint64) *Engine {
	e := NewEngine(seed)
	e.wheelMin = 1 << 40
	return e
}

// TestWheelMatchesHeapOrder drives a wheel-forced engine and a heap-only
// engine through an identical randomized schedule/cancel workload and
// asserts the firing sequences are identical: the wheel must be a pure
// performance structure with zero effect on event order.
func TestWheelMatchesHeapOrder(t *testing.T) {
	runDet := func(e *Engine) []int {
		rng := NewRNG(42)
		var fired []int
		pending := make(map[int]Event)
		var spawn func(id int)
		n := 0
		spawn = func(id int) {
			delays := []Time{0, 1, 100, 5000, 100_000, 3_000_000, 80_000_000, 500_000_000}
			d := delays[rng.Intn(len(delays))] + Time(rng.Intn(7))
			pending[id] = e.After(d, func() {
				fired = append(fired, id)
				delete(pending, id)
				if n < 3000 {
					n++
					spawn(n)
					if n%5 == 0 {
						lowest := -1
						for victim := range pending {
							if lowest < 0 || victim < lowest {
								lowest = victim
							}
						}
						if lowest >= 0 {
							e.Cancel(pending[lowest])
							delete(pending, lowest)
						}
						n++
						spawn(n)
					}
				}
			})
		}
		for i := 0; i < 64; i++ {
			n++
			spawn(n)
		}
		e.Run()
		return fired
	}

	wheel := runDet(wheelEngine(7))
	heap := runDet(heapEngine(7))
	if len(wheel) == 0 || len(heap) == 0 {
		t.Fatalf("no events fired (wheel=%d heap=%d)", len(wheel), len(heap))
	}
	if len(wheel) != len(heap) {
		t.Fatalf("fired counts differ: wheel=%d heap=%d", len(wheel), len(heap))
	}
	for i := range wheel {
		if wheel[i] != heap[i] {
			t.Fatalf("firing order diverges at %d: wheel=%d heap=%d", i, wheel[i], heap[i])
		}
	}
}

// TestWheelTieBreak pins the FIFO tie-break across placements: events
// scheduled at the same instant fire in scheduling order even when some
// were parked in wheel slots and some in the heap.
func TestWheelTieBreak(t *testing.T) {
	e := wheelEngine(1)
	var got []int
	at := Time(1 << 20) // a few hundred ticks out: wheel placement
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(at, func() { got = append(got, i) })
		// Interleave far-future heap events at the same instant by going
		// beyond the horizon from now.
	}
	// Advance close to the target, then schedule more events at the same
	// instant — these are now same-tick inserts and go to the heap.
	e.Schedule(at-Time(1), func() {
		for i := 100; i < 200; i++ {
			i := i
			e.Schedule(at, func() { got = append(got, i) })
		}
	})
	e.Run()
	if len(got) != 200 {
		t.Fatalf("fired %d of 200", len(got))
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("tie-break violated at %d: got id %d", i, id)
		}
	}
}

// TestWheelCancelSweep floods the wheel with canceled timers and checks
// they are reclaimed (the free list serves subsequent inserts) and that
// the engine still drains cleanly.
func TestWheelCancelSweep(t *testing.T) {
	e := wheelEngine(1)
	evs := make([]Event, 4096)
	for i := range evs {
		evs[i] = e.After(Time(1<<14+i<<10), func() { t.Fatal("canceled event fired") })
	}
	for i := range evs {
		e.Cancel(evs[i])
	}
	if n := e.q.wheelDead; n != 0 {
		t.Fatalf("wheelDead = %d after canceling every wheel event; sweep did not run", n)
	}
	if !e.Idle() {
		t.Fatal("engine not idle after canceling everything")
	}
	fired := false
	e.After(1<<20, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("post-sweep event did not fire")
	}
}

// TestWheelSparseAdvance checks that draining across long empty
// stretches (far L1 events with nothing in between) terminates and fires
// in order.
func TestWheelSparseAdvance(t *testing.T) {
	e := wheelEngine(1)
	var got []Time
	// One event per L1 block boundary region, far apart.
	for i := 1; i <= 200; i++ {
		at := Time(i) << (wheelShift + wheelBits) // exactly block-aligned ticks
		at += Time(i % 3)
		e.Schedule(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	if len(got) != 200 {
		t.Fatalf("fired %d of 200", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out-of-order fire times: %v then %v", got[i-1], got[i])
		}
	}
}

// TestWheelCheckpointRestore exercises the snapshot hooks: a quiescent
// engine checkpoints, a fresh engine restores, and scheduling continues
// the (at, seq) sequence.
func TestWheelCheckpointRestore(t *testing.T) {
	e := NewEngine(9)
	for i := 0; i < 10; i++ {
		e.After(Time(i*100), func() {})
	}
	e.Run()
	now, seq := e.Checkpoint()
	if now != 900 || seq != 10 {
		t.Fatalf("checkpoint = (%v, %d), want (900, 10)", now, seq)
	}
	if e.Seed() != 9 {
		t.Fatalf("Seed() = %d, want 9", e.Seed())
	}
	if e.RNG().State() != NewRNG(9).State() {
		t.Fatal("unconsumed RNG state mismatch")
	}

	e2 := NewEngine(9)
	e2.Restore(now, seq)
	if e2.Now() != now {
		t.Fatalf("restored Now = %v, want %v", e2.Now(), now)
	}
	fired := false
	e2.Schedule(now+1, func() { fired = true })
	e2.Run()
	if !fired {
		t.Fatal("restored engine did not fire")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Restore on a used engine did not panic")
		}
	}()
	e2.Restore(0, 0)
}

// TestWheelAllocSteadyState guards the 0-alloc fast path: once the event
// free list and heap arena are primed, schedule/cancel and
// schedule/fire cycles through the wheel must not allocate.
func TestWheelAllocSteadyState(t *testing.T) {
	e := wheelEngine(1)
	fn := func() {}
	evs := make([]Event, 512)

	// Prime the free list and heap capacity.
	for r := 0; r < 4; r++ {
		for i := range evs {
			evs[i] = e.After(Time(1000+i*3000), fn)
		}
		for i := range evs {
			e.Cancel(evs[i])
		}
		e.After(1, fn)
		e.Run()
	}

	if n := testing.AllocsPerRun(100, func() {
		for i := range evs {
			evs[i] = e.After(Time(1000+i*3000), fn)
		}
		for i := range evs {
			e.Cancel(evs[i])
		}
	}); n != 0 {
		t.Fatalf("wheel schedule/cancel fast path allocates %.1f per run, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		for i := range evs {
			e.After(Time(1000+i*3000), fn)
		}
		e.Run()
	}); n != 0 {
		t.Fatalf("wheel schedule/fire path allocates %.1f per run, want 0", n)
	}
}
