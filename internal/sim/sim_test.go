package sim

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.00us"},
		{1500 * Microsecond, "1.50ms"},
		{2 * Second, "2.000s"},
		{-Millisecond, "-1.00ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Errorf("Micros = %v, want 3", got)
	}
	if got := (Second).Millis(); got != 1000 {
		t.Errorf("Millis = %v, want 1000", got)
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Schedule(10, func() { got = append(got, 11) }) // same time: scheduling order
	e.Run()
	want := []int{1, 11, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events fired %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(5, func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelTwiceAndStale(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	ev := e.Schedule(10, func() { fired++ })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel: no-op
	e.Cancel(Event{})
	keep := e.Schedule(20, func() { fired += 10 })
	e.Run()
	// keep's slot may be recycled now; a stale handle must stay inert.
	e.Cancel(keep)
	later := e.Schedule(30, func() { fired += 100 })
	e.Cancel(keep) // must not hit the recycled slot that later may reuse
	e.Run()
	_ = later
	if fired != 110 {
		t.Errorf("fired = %d, want 110 (canceled event dead, live events intact)", fired)
	}
}

func TestCancelDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(100, func() {})
	e.Schedule(10, func() {})
	e.Cancel(ev)
	if e.Idle() {
		t.Error("Idle with one live event pending")
	}
	e.Run()
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10 (tombstone at 100 must not advance the clock)", e.Now())
	}
	if !e.Idle() {
		t.Error("not Idle after Run")
	}
}

func TestRunUntilSkipsTombstonesBeyondDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Cancel(e.Schedule(5, func() { t.Error("canceled event fired") }))
	e.Schedule(8, func() { fired = append(fired, 8) })
	e.Cancel(e.Schedule(9, func() { t.Error("canceled event fired") }))
	e.Schedule(15, func() { fired = append(fired, 15) })
	e.RunUntil(10)
	if !reflect.DeepEqual(fired, []Time{8}) {
		t.Errorf("fired %v, want [8] (event at 15 is past the deadline)", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
}

func TestCancelChurnCompacts(t *testing.T) {
	e := NewEngine(1)
	// Schedule-and-cancel churn far beyond the compaction threshold; the
	// heap must not accumulate one tombstone per canceled timer.
	for i := 0; i < 10000; i++ {
		ev := e.Schedule(Time(1000+i), func() { t.Error("canceled event fired") })
		e.Cancel(ev)
	}
	if n := len(e.q.events); n > 256 {
		t.Errorf("heap holds %d slots after churn, want compacted (<= 256)", n)
	}
	done := false
	e.Schedule(20000, func() { done = true })
	e.Run()
	if !done {
		t.Error("live event lost during compaction")
	}
}

// TestEventRecordSize pins the pooled event record: N pending timers
// hold N records, and one more field would move each from Go's 48-byte
// size class to its 64-byte one.
func TestEventRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 48 {
		t.Errorf("event is %d bytes, want at most 48", size)
	}
}

// TestEventSteadyStateAllocs guards the 0-alloc fast path: once the
// event free list and heap capacity are primed, schedule/cancel and
// schedule/fire cycles must not allocate.
func TestEventSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
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
		t.Fatalf("schedule/cancel path allocates %.1f per run, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		for i := range evs {
			e.After(Time(1000+i*3000), fn)
		}
		e.Run()
	}); n != 0 {
		t.Fatalf("schedule/fire path allocates %.1f per run, want 0", n)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(10)
	if !reflect.DeepEqual(fired, []Time{5, 10}) {
		t.Errorf("fired %v, want [5 10]", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
	if !reflect.DeepEqual(fired, []Time{5, 10, 15}) {
		t.Errorf("fired %v, want [5 10 15]", fired)
	}
}

func TestProcSleepInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	log := func(s string) { trace = append(trace, s) }
	e.Go("a", func(p *Proc) {
		log("a0")
		p.Sleep(10)
		log("a1")
		p.Sleep(20)
		log("a2")
	})
	e.Go("b", func(p *Proc) {
		log("b0")
		p.Sleep(15)
		log("b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace %v, want %v", trace, want)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestProcVirtualTimeAdvances(t *testing.T) {
	e := NewEngine(1)
	var at0, at1 Time
	p := e.Spawn("p", 7, func(p *Proc) {
		at0 = p.Now()
		p.Sleep(3)
		at1 = p.Now()
	})
	e.Run()
	if at0 != 7 || at1 != 10 {
		t.Errorf("times = %v, %v; want 7, 10", at0, at1)
	}
	if !p.Done() {
		t.Error("process not done")
	}
	if p.Err() != nil {
		t.Errorf("unexpected err: %v", p.Err())
	}
}

// TestStepNeverResumesInPlace pins the driver horizon: once WaitAll has
// returned, a bare step fires exactly one event, so a sleeper parks at
// every Sleep instead of running on in place.
func TestStepNeverResumesInPlace(t *testing.T) {
	e := NewEngine(1)
	first := e.Go("first", func(*Proc) {})
	p := e.Spawn("sleeper", 1, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1)
		}
	})
	e.WaitAll(first) // leaves the sleeper's start pending
	for i := 1; i <= 3; i++ {
		e.step()
		if e.Now() != Time(i) || p.State() != StateBlocked {
			t.Fatalf("after step %d: Now = %v, state %v; want %v, blocked", i, e.Now(), p.State(), Time(i))
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	e := NewEngine(1)
	var order []string
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		order = append(order, "block")
		p.Block()
		order = append(order, "woken")
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(50)
		order = append(order, "wake")
		p.Engine().Unblock(waiter)
	})
	e.Run()
	want := []string{"block", "wake", "woken"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEngine(1)
	e.Go("stuck", func(p *Proc) { p.Block() })
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e.Run()
}

func TestProcPanicCaptured(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("boom", func(p *Proc) { panic("bad") })
	e.Run()
	if p.Err() == nil {
		t.Fatal("expected captured panic error")
	}
}

func TestResourceSerializesFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var order []string
	use := func(name string, hold Time) func(p *Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			r.Release()
		}
	}
	e.Spawn("a", 0, use("a", 100))
	e.Spawn("b", 10, use("b", 100)) // queues first
	e.Spawn("c", 20, use("c", 100)) // queues second
	e.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if e.Now() != 300 {
		t.Errorf("Now = %v, want 300 (fully serialized)", e.Now())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	var maxConcurrent, cur int
	body := func(p *Proc) {
		r.Acquire(p)
		cur++
		if cur > maxConcurrent {
			maxConcurrent = cur
		}
		p.Sleep(100)
		cur--
		r.Release()
	}
	for i := 0; i < 5; i++ {
		e.Go("w", body)
	}
	e.Run()
	if maxConcurrent != 2 {
		t.Errorf("max concurrency %d, want 2", maxConcurrent)
	}
	if e.Now() != 300 {
		t.Errorf("Now = %v, want 300 (ceil(5/2) batches)", e.Now())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release should succeed")
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	e.Go("u", func(p *Proc) {
		p.Sleep(10)
		r.Acquire(p)
		p.Sleep(30)
		r.Release()
	})
	e.Run()
	if r.BusyTime() != 30 {
		t.Errorf("BusyTime = %v, want 30", r.BusyTime())
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEngine(1)
	a := e.Go("a", func(p *Proc) { p.Sleep(10) })
	b := e.Go("b", func(p *Proc) { p.Sleep(20) })
	e.WaitAll(a, b)
	if !a.Done() || !b.Done() {
		t.Fatal("WaitAll returned before processes finished")
	}
}

// TestCheckpointRestore exercises the snapshot hooks: a quiescent
// engine checkpoints, a fresh engine restores, and scheduling continues
// the (at, seq) sequence.
func TestCheckpointRestore(t *testing.T) {
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

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []string {
		e := NewEngine(seed)
		var trace []string
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(p.Engine().RNG().Intn(100) + 1))
					trace = append(trace, name)
				}
			})
		}
		e.Run()
		return trace
	}
	if !reflect.DeepEqual(run(42), run(42)) {
		t.Error("identical seeds produced different traces")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n % 64)
		p := NewRNG(seed).Perm(m)
		if len(p) != m {
			return false
		}
		q := append([]int(nil), p...)
		sort.Ints(q)
		for i, v := range q {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministicStream(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGRoughUniformity(t *testing.T) {
	r := NewRNG(123)
	const buckets, n = 10, 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Errorf("bucket %d count %d far from uniform %d", i, c, n/buckets)
		}
	}
}

func TestEventNonDecreasingTimeProperty(t *testing.T) {
	f := func(seed uint64, delays []uint16) bool {
		e := NewEngine(seed)
		var fireTimes []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
