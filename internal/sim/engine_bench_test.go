package sim

import "testing"

// BenchmarkSchedule measures the schedule-then-fire path: N events pushed
// and popped through the heap.
func BenchmarkSchedule(b *testing.B) {
	const batch = 1024
	e := NewEngine(1)
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < batch; j++ {
			e.Schedule(base+Time(j%37), fn)
		}
		e.Run()
	}
	_ = sink
}

// BenchmarkHeapSchedule measures the heap under a large standing set of
// short-to-medium delay timers (microseconds to a few milliseconds, the
// sleep/IO range of the simulator) with steady churn: each firing
// schedules a replacement.
func BenchmarkHeapSchedule(b *testing.B) {
	const outstanding = 8192
	e := NewEngine(1)
	delays := [8]Time{5_000, 17_000, 40_000, 120_000, 350_000, 900_000, 2_100_000, 4_700_000}
	fired := 0
	var reschedule func()
	i := 0
	reschedule = func() {
		fired++
		e.After(delays[i&7], reschedule)
		i++
	}
	for j := 0; j < outstanding; j++ {
		e.After(delays[j&7]+Time(j), reschedule)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for fired < b.N {
		if !e.step() {
			b.Fatal("engine drained")
		}
	}
	b.StopTimer()
}

// BenchmarkProcessHandoff measures the process-to-process hop that Sleep
// pays when another process's wake is due first: two processes sleep in
// turn, so each one's wake always queues behind the other's and no Sleep
// resumes in place. Each Sleep parks, fires the other's wake on its own
// goroutine and hands control straight to it: one goroutine switch, with
// no trip through the driver.
func BenchmarkProcessHandoff(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	sleeper := func(n int) func(p *Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		}
	}
	e.WaitAll(e.Go("a", sleeper((b.N+1)/2)), e.Go("b", sleeper(b.N/2)))
}

// BenchmarkSleepInPlace measures a lone sleeper, whose wake is always the
// next event, so every Sleep resumes in place without a handoff.
func BenchmarkSleepInPlace(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	p := e.Go("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.WaitAll(p)
}
