package disk

import (
	"testing"

	"graybox/internal/sim"
)

// queueRequests parks a holder on the disk, queues the given blocks from
// separate processes, then releases and records completion order.
func queueRequests(t *testing.T, sched Scheduler, blocks []int64) []int64 {
	t.Helper()
	e := sim.NewEngine(1)
	d := New(e, DefaultParams())
	d.SetScheduler(sched)

	var order []int64
	// Holder occupies the disk long enough for all others to queue.
	e.Go("holder", func(p *sim.Proc) {
		d.Access(p, 0, d.Params().BlocksPerTrack, false)
	})
	for i, b := range blocks {
		b := b
		e.Spawn("req", sim.Time(i+1)*sim.Microsecond, func(p *sim.Proc) {
			d.Access(p, b, 1, false)
			order = append(order, b)
		})
	}
	e.Run()
	if len(order) != len(blocks) {
		t.Fatalf("completed %d of %d requests", len(order), len(blocks))
	}
	return order
}

func TestSSTFOrdersBySeekDistance(t *testing.T) {
	bpc := int64(DefaultParams().BlocksPerTrack * DefaultParams().TracksPerCyl)
	// Cylinders: 5000, 100, 4900 — head starts at ~0, so 100 first, then
	// 4900, then 5000.
	blocks := []int64{5000 * bpc, 100 * bpc, 4900 * bpc}
	order := queueRequests(t, SSTF, blocks)
	want := []int64{100 * bpc, 4900 * bpc, 5000 * bpc}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SSTF order = %v, want %v", order, want)
		}
	}
}

func TestFCFSKeepsArrivalOrder(t *testing.T) {
	bpc := int64(DefaultParams().BlocksPerTrack * DefaultParams().TracksPerCyl)
	blocks := []int64{5000 * bpc, 100 * bpc, 4900 * bpc}
	order := queueRequests(t, FCFS, blocks)
	for i := range blocks {
		if order[i] != blocks[i] {
			t.Fatalf("FCFS order = %v, want arrival order %v", order, blocks)
		}
	}
}

func TestLOOKSweeps(t *testing.T) {
	bpc := int64(DefaultParams().BlocksPerTrack * DefaultParams().TracksPerCyl)
	// Head near cylinder 0: the sweep services everything in ascending
	// cylinder order: 50, 100, 2000, 5000.
	blocks := []int64{2000 * bpc, 50 * bpc, 5000 * bpc, 100 * bpc}
	order := queueRequests(t, LOOK, blocks)
	want := []int64{50 * bpc, 100 * bpc, 2000 * bpc, 5000 * bpc}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LOOK order = %v, want %v", order, want)
		}
	}
}

func TestSSTFBeatsFCFSOnRandomLoad(t *testing.T) {
	run := func(sched Scheduler) sim.Time {
		e := sim.NewEngine(7)
		d := New(e, DefaultParams())
		d.SetScheduler(sched)
		rng := sim.NewRNG(42)
		const n = 64
		procs := make([]*sim.Proc, n)
		for i := 0; i < n; i++ {
			b := rng.Int63n(d.Params().Blocks())
			procs[i] = e.Go("r", func(p *sim.Proc) {
				d.Access(p, b, 1, false)
			})
		}
		e.WaitAll(procs...)
		return e.Now()
	}
	fcfs := run(FCFS)
	sstf := run(SSTF)
	if sstf >= fcfs {
		t.Errorf("SSTF (%v) not faster than FCFS (%v) on a random backlog", sstf, fcfs)
	}
	if sstf > fcfs*3/4 {
		t.Errorf("SSTF (%v) should cut well into FCFS (%v) seek time", sstf, fcfs)
	}
}

func TestSchedulerChangeGuard(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, DefaultParams())
	d.SetScheduler(SSTF)
	if d.Scheduler() != SSTF {
		t.Fatal("scheduler not set")
	}
	e.Go("holder", func(p *sim.Proc) {
		d.Access(p, 0, 30, false)
	})
	e.Go("late", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		defer func() {
			if recover() == nil {
				t.Error("expected panic switching scheduler mid-flight")
			}
			panic("rethrow")
		}()
		d.SetScheduler(FCFS)
	})
	e.Run()
}

// TestBusyTimeIsServiceTime checks the busy-time account under every
// policy: three 8-block reads queued at once keep the disk busy for
// exactly their summed service time.
func TestBusyTimeIsServiceTime(t *testing.T) {
	for _, c := range []struct {
		name  string
		sched Scheduler
	}{{"fcfs", FCFS}, {"sstf", SSTF}, {"look", LOOK}} {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			d := newTestDisk(e)
			d.SetScheduler(c.sched)
			bpc := int64(d.p.BlocksPerTrack * d.p.TracksPerCyl)
			for _, cyl := range []int64{4000, 100, 2000} {
				e.Go("r", func(p *sim.Proc) { d.Access(p, cyl*bpc, 8, false) })
			}
			e.Run()
			st := d.Stats()
			if st.Reads != 3 || st.QueueTime == 0 {
				t.Fatalf("stats %+v, want 3 reads that queued", st)
			}
			want := 3*d.p.Overhead + st.SeekTime + st.RotTime + st.TransferTime
			if got := d.BusyTime(); got != want {
				t.Errorf("BusyTime = %v, want the summed service time %v", got, want)
			}
		})
	}
}
