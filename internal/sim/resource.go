package sim

// Resource is a counting semaphore with strict FIFO admission, used to
// model devices (a disk services one request at a time) and bounded pools.
type Resource struct {
	e        *Engine
	capacity int
	inUse    int
	waiters  []*Proc

	// Utilization accounting.
	busySince Time
	busyTotal Time
}

// NewResource creates a resource with the given concurrent capacity.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{e: e, capacity: capacity}
}

// Acquire obtains one unit of the resource, blocking the calling process
// in FIFO order if none is available.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.grant()
		return
	}
	r.waiters = append(r.waiters, p)
	p.Block()
	// The releaser granted our unit before unblocking us.
}

// TryAcquire obtains a unit without blocking; it reports whether it
// succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.grant()
		return true
	}
	return false
}

func (r *Resource) grant() {
	if r.inUse == 0 {
		r.busySince = r.e.now
	}
	r.inUse++
}

// Release returns one unit and hands it to the longest-waiting process, if
// any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	r.inUse--
	if r.inUse == 0 {
		r.busyTotal += r.e.now - r.busySince
	}
	if len(r.waiters) > 0 {
		// Shift the queue down rather than reslicing past its head, which
		// would shed the slice's front capacity and make the next Acquire
		// reallocate.
		next := r.waiters[0]
		n := copy(r.waiters, r.waiters[1:])
		r.waiters[n] = nil
		r.waiters = r.waiters[:n]
		r.grant()
		r.e.Unblock(next)
	}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// BusyTime returns the total virtual time during which at least one unit
// was held.
func (r *Resource) BusyTime() Time {
	t := r.busyTotal
	if r.inUse > 0 {
		t += r.e.now - r.busySince
	}
	return t
}
