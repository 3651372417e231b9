package disk

import (
	"graybox/internal/sim"
)

// Scheduler selects the order in which queued requests are serviced.
// The default is FCFS, which is what the rest of this repository's
// experiments assume; SSTF and LOOK exist for the scheduling ablation
// (seek-ordered service changes how much file layout matters).
type Scheduler int

const (
	// FCFS services requests in arrival order.
	FCFS Scheduler = iota
	// SSTF services the queued request with the shortest seek from the
	// current head position (can starve distant requests).
	SSTF
	// LOOK sweeps the head across the disk, servicing requests in
	// cylinder order, reversing at the last request in each direction.
	LOOK
)

// request is one access waiting in the disk's queue.
type request struct {
	proc *sim.Proc
	cyl  int
}

// schedState is the disk's one request queue: the disk serves one
// request at a time and, when it finishes, hands itself to the queued
// request the policy picks. It also keeps the busy-time account.
type schedState struct {
	policy  Scheduler
	busy    bool
	queue   []request
	upsweep bool // LOOK direction

	busySince, busyTotal sim.Time
}

// SetScheduler selects the request scheduler. It must be called before
// any Access; switching with requests in flight panics.
func (d *Disk) SetScheduler(s Scheduler) {
	if d.sched.busy || len(d.sched.queue) > 0 {
		panic("disk: cannot change scheduler with requests in flight")
	}
	d.sched.policy = s
}

// Scheduler returns the active policy.
func (d *Disk) Scheduler() Scheduler { return d.sched.policy }

// acquire gives p the disk, queueing it behind the request being
// served if there is one.
func (d *Disk) acquire(p *sim.Proc, block int64) {
	if d.sched.busy {
		d.sched.queue = append(d.sched.queue, request{proc: p, cyl: d.cylinder(block)})
		p.Block() // the request ahead hands the disk over
		return
	}
	d.sched.busy, d.sched.busySince = true, d.e.Now()
}

// release hands the disk to the next queued request per the policy,
// or idles it.
func (d *Disk) release() {
	q := d.sched.queue
	if len(q) == 0 {
		d.sched.busy = false
		d.sched.busyTotal += d.e.Now() - d.sched.busySince
		return
	}
	idx := 0
	switch d.sched.policy {
	case SSTF:
		best := -1
		for i, r := range q {
			dist := r.cyl - d.headCyl
			if dist < 0 {
				dist = -dist
			}
			if best < 0 || dist < best {
				best, idx = dist, i
			}
		}
	case LOOK:
		idx = d.pickLook()
	}
	next := q[idx].proc
	d.sched.queue = append(q[:idx], q[idx+1:]...)
	d.e.Unblock(next)
}

// BusyTime reports how long the disk has been servicing requests.
func (d *Disk) BusyTime() sim.Time {
	t := d.sched.busyTotal
	if d.sched.busy {
		t += d.e.Now() - d.sched.busySince
	}
	return t
}

// pickLook chooses the nearest request in the sweep direction, reversing
// when none remain ahead.
func (d *Disk) pickLook() int {
	pick := func(up bool) int {
		best, idx := -1, -1
		for i, r := range d.sched.queue {
			var dist int
			if up {
				dist = r.cyl - d.headCyl
			} else {
				dist = d.headCyl - r.cyl
			}
			if dist < 0 {
				continue
			}
			if best < 0 || dist < best {
				best, idx = dist, i
			}
		}
		return idx
	}
	if idx := pick(d.sched.upsweep); idx >= 0 {
		return idx
	}
	d.sched.upsweep = !d.sched.upsweep
	if idx := pick(d.sched.upsweep); idx >= 0 {
		return idx
	}
	return 0
}

// service performs the mechanical transfer.
func (d *Disk) service(p *sim.Proc, block int64, nblocks int, write bool) {
	seek, rot, xfer := d.serviceTime(block, nblocks, d.e.Now())
	total := d.p.Overhead + seek + rot + xfer
	d.stats.SeekTime += seek
	d.stats.RotTime += rot
	d.stats.TransferTime += xfer
	if write {
		d.stats.Writes++
		d.stats.BlocksWrote += int64(nblocks)
	} else {
		d.stats.Reads++
		d.stats.BlocksRead += int64(nblocks)
	}
	if t := d.tel; t != nil {
		t.seekNS.Add(int64(seek))
		t.rotNS.Add(int64(rot))
		t.xferNS.Add(int64(xfer))
		t.serviceNS.Observe(int64(total))
		if write {
			t.writes.Inc()
			t.blocksW.Add(int64(nblocks))
		} else {
			t.reads.Inc()
			t.blocksRead.Add(int64(nblocks))
		}
	}
	d.headCyl = d.cylinder(block + int64(nblocks) - 1)
	p.Sleep(total)
	d.lastEnd = block + int64(nblocks)
	d.lastEndTime = d.e.Now()
}
