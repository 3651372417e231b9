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

// request is one queued disk access.
type request struct {
	proc    *sim.Proc
	block   int64
	nblocks int
	write   bool
	cyl     int
}

// schedState replaces the simple FIFO resource when a non-FCFS
// scheduler is selected.
type schedState struct {
	policy  Scheduler
	busy    bool
	queue   []*request
	upsweep bool // LOOK direction
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

// schedAccess is the scheduled variant of Access (used for SSTF/LOOK).
func (d *Disk) schedAccess(p *sim.Proc, block int64, nblocks int, write bool) {
	req := &request{proc: p, block: block, nblocks: nblocks, write: write, cyl: d.cylinder(block)}
	enq := d.e.Now()
	if d.sched.busy {
		d.sched.queue = append(d.sched.queue, req)
		p.Block()
	} else {
		d.sched.busy = true
	}
	queued := d.e.Now() - enq
	d.stats.QueueTime += queued
	if t := d.tel; t != nil {
		t.queueNS.Add(int64(queued))
		p.Track().QueueWait(int64(queued))
	}
	d.service(p, req.block, req.nblocks, req.write)
	// Hand the disk to the next request per policy.
	if next := d.pickNext(); next != nil {
		d.e.Unblock(next.proc)
	} else {
		d.sched.busy = false
	}
}

// pickNext removes and returns the next request per the policy.
func (d *Disk) pickNext() *request {
	q := d.sched.queue
	if len(q) == 0 {
		return nil
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
	req := q[idx]
	d.sched.queue = append(q[:idx], q[idx+1:]...)
	return req
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

// service performs the mechanical transfer (shared by both paths).
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
