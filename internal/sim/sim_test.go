package sim

import (
	"reflect"
	"sort"
	"strings"
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

// TestEventRecordSize pins the pooled event record: N pending timers
// hold N records, and one more field would move each from Go's 48-byte
// size class to its 64-byte one.
func TestEventRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 48 {
		t.Errorf("event is %d bytes, want at most 48", size)
	}
}

// TestEventSteadyStateAllocs guards the 0-alloc fast path: once
// AllocsPerRun's warm-up call has primed the event free list and heap
// capacity, schedule/fire cycles must not allocate.
func TestEventSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	const n = 512
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < n; i++ {
			e.After(Time(1000+i*3000), fn)
		}
		e.Run()
	}); allocs != 0 {
		t.Fatalf("schedule/fire path allocates %.1f per run, want 0", allocs)
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
	r := NewResource(e)
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

// TestResourceContendedAllocs guards Release's queue handling: once the
// waiter queue has grown to the number of contenders, handing the
// resource from process to process must not allocate. Four processes
// each acquire, hold for 1 µs and release, so every Release hands the
// unit to a queued process while the releaser queues again.
func TestResourceContendedAllocs(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			for {
				r.Acquire(p)
				p.Sleep(Microsecond)
				r.Release()
			}
		})
	}
	e.RunUntil(100 * Microsecond) // warm the queue and the event pool
	next := e.Now()
	allocs := testing.AllocsPerRun(100, func() {
		next += 80 * Microsecond // 80 hand-offs
		e.RunUntil(next)
	})
	if allocs != 0 {
		t.Errorf("contended acquire/release allocs per 80 cycles = %v, want 0", allocs)
	}
	if r.QueueLen() != 3 {
		t.Errorf("queue length %d, want 3 waiting behind the holder", r.QueueLen())
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

// TestWaitAllNoProcs: with nothing to wait for, WaitAll returns before
// firing anything, so the clock stays put.
func TestWaitAllNoProcs(t *testing.T) {
	e := NewEngine(1)
	e.Go("p", func(p *Proc) { p.Sleep(10) })
	e.After(5, func() {})
	e.WaitAll()
	if n := e.Stats().Events; n != 0 || e.Now() != 0 {
		t.Fatalf("WaitAll() fired %d event(s) and moved the clock to %v, want 0 and 0", n, e.Now())
	}
	e.Run()
}

// TestSpawnBadArgsPanic: a negative delay or a nil body panics at the
// Spawn call, before the process is counted.
func TestSpawnBadArgsPanic(t *testing.T) {
	for _, c := range []struct {
		delay Time
		body  func(*Proc)
		want  string
	}{
		{-1, func(*Proc) {}, "sim: negative delay"},
		{0, nil, "sim: spawn of nil body"},
	} {
		e := NewEngine(1)
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != c.want {
					t.Errorf("Spawn(%v, body) panicked with %q, want %q", c.delay, msg, c.want)
				}
			}()
			e.Spawn("p", c.delay, c.body)
		}()
		if s := e.Stats(); s.Spawns != 0 || len(e.q.events) != 0 {
			t.Errorf("failed Spawn counted %d spawn(s) and queued %d event(s), want 0 and 0", s.Spawns, len(e.q.events))
		}
	}
}

// TestClosurePanicReachesDriverCaller: closures fire only on the driver's
// goroutine. One that panics while processes are parked, with process
// events fired before it on process goroutines and others due after it,
// panics out of Run and fails no process.
func TestClosurePanicReachesDriverCaller(t *testing.T) {
	e := NewEngine(1)
	a := e.Go("a", func(p *Proc) { p.Sleep(5); p.Sleep(10) })
	b := e.Go("b", func(p *Proc) { p.Sleep(20) })
	e.After(10, func() { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("Run panicked with %v, want boom", r)
			}
		}()
		e.Run()
	}()
	if a.Err() != nil || b.Err() != nil {
		t.Errorf("process errors %v and %v, want none", a.Err(), b.Err())
	}
	if e.Now() != 10 || a.State() != StateBlocked || b.State() != StateBlocked {
		t.Errorf("after the panic: Now = %v, states %v and %v; want 10, blocked and blocked", e.Now(), a.State(), b.State())
	}
}

// TestDriverReentryPanics: Run, RunUntil and WaitAll do not nest. A
// call from a process body fails that process with a message, and the
// outer driver runs on unharmed: its horizon still lets a later sleeper
// resume in place. A call from a closure panics out of the outer driver.
func TestDriverReentryPanics(t *testing.T) {
	calls := []struct {
		name string
		call func(e *Engine)
	}{
		{"Run", func(e *Engine) { e.Run() }},
		{"RunUntil", func(e *Engine) { e.RunUntil(100) }},
		{"WaitAll", func(e *Engine) { e.WaitAll() }},
	}
	for _, c := range calls {
		e := NewEngine(1)
		p := e.Go("p", func(p *Proc) { c.call(p.Engine()) })
		q := e.Spawn("q", 1, func(p *Proc) { p.Sleep(1); p.Sleep(1) })
		e.Run()
		want := "sim: " + c.name + " called inside a running Run"
		if p.Err() == nil || !strings.Contains(p.Err().Error(), want) {
			t.Errorf("%s from a process body: Err() = %v, want it to contain %q", c.name, p.Err(), want)
		}
		if q.Err() != nil || !q.Done() || e.Now() != 3 {
			t.Errorf("%s from a process body: q done %v, err %v, Now %v; want true, nil, 3", c.name, q.Done(), q.Err(), e.Now())
		}
		if n := e.Stats().SleepsInPlace; n != 2 {
			t.Errorf("%s from a process body: %d sleeps resumed in place, want 2", c.name, n)
		}

		e = NewEngine(1)
		e.After(1, func() { c.call(e) })
		func() {
			defer func() {
				want := "sim: " + c.name + " called inside a running RunUntil"
				if msg, _ := recover().(string); msg != want {
					t.Errorf("%s from a closure: RunUntil panicked with %q, want %q", c.name, msg, want)
				}
			}()
			e.RunUntil(10)
		}()
		e.Run() // the failed RunUntil ended its drive
	}
}

// TestEngineStats pins the work counters in three cases.
func TestEngineStats(t *testing.T) {
	sleeper := func(n int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		}
	}
	t.Run("lone sleeper", func(t *testing.T) {
		// Every sleep resumes in place. The only switches are the
		// driver starting the process and its exit handing back.
		e := NewEngine(1)
		e.Go("a", sleeper(10))
		e.Run()
		want := Stats{Events: 1, SleepsInPlace: 10, Spawns: 1, GoroutineSwitches: 2}
		if got := e.Stats(); got != want {
			t.Errorf("Stats() = %+v, want %+v", got, want)
		}
	})
	t.Run("two sleepers in turn", func(t *testing.T) {
		// Each wake queues behind the other's, so all 10 sleeps park,
		// each with one switch straight to the other process. The three
		// others: the driver starts a, a's exit hands to b, and b's
		// exit hands back.
		e := NewEngine(1)
		e.Go("a", sleeper(5))
		e.Go("b", sleeper(5))
		e.Run()
		want := Stats{Events: 12, SleepParks: 10, Spawns: 2, GoroutineSwitches: 13}
		if got := e.Stats(); got != want {
			t.Errorf("Stats() = %+v, want %+v", got, want)
		}
	})
	t.Run("wake after a slice expiry", func(t *testing.T) {
		// w computes alone on the CPU, its slice expiring every 1ms; s
		// sleeps 1.5ms. s's park fires w's slice expiry at 1ms (which
		// keeps w on the CPU) and then s's own wake, so s resumes with
		// no switch. Switches: driver to w, w's park starting s, s's
		// exit to w (after w's last slice), w's exit to the driver.
		e := NewEngine(1)
		e.SetCPUs(1, Millisecond)
		e.Go("w", func(p *Proc) { p.Compute(3 * Millisecond) })
		e.Go("s", func(p *Proc) { p.Sleep(1500 * Microsecond) })
		e.Run()
		want := Stats{Events: 6, SleepParks: 1, ComputeParks: 1, Spawns: 2, GoroutineSwitches: 4}
		if got := e.Stats(); got != want {
			t.Errorf("Stats() = %+v, want %+v", got, want)
		}
		if n := e.ContextSwitches(); n != 0 {
			t.Errorf("ContextSwitches = %d, want 0", n)
		}
	})
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
	e2.Go("p", func(p *Proc) { p.Sleep(1); p.Sleep(1) })
	e2.Run()
	if s := e2.Stats(); s.Events != 2 || s.SleepsInPlace != 2 {
		t.Fatalf("restored engine: %d events and %d sleeps in place, want 2 and 2", s.Events, s.SleepsInPlace)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Restore on a used engine did not panic")
		}
	}()
	e2.Restore(0, 0)
}

// TestCheckpointPanicsWithPendingEvent: a queued event is a quiescence
// violation, and the panic says how many are pending.
func TestCheckpointPanicsWithPendingEvent(t *testing.T) {
	e := NewEngine(1)
	e.After(10, func() {})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "1 pending event(s)") {
			t.Errorf("Checkpoint with one queued event panicked with %q, want it to name 1 pending event(s)", msg)
		}
	}()
	e.Checkpoint()
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
