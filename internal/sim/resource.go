package sim

// Resource is a lock with strict FIFO admission, used to model a device
// that serves one request at a time (a CPU, a network link).
type Resource struct {
	e       *Engine
	held    bool
	waiters []*Proc
}

// NewResource creates a free resource.
func NewResource(e *Engine) *Resource { return &Resource{e: e} }

// Acquire takes the resource, blocking the calling process in FIFO
// order while another holds it.
func (r *Resource) Acquire(p *Proc) {
	if !r.held && len(r.waiters) == 0 {
		r.held = true
		return
	}
	r.waiters = append(r.waiters, p)
	p.Block()
	// The releaser handed the resource over before unblocking us.
}

// Release frees the resource, handing it to the longest-waiting process
// if any.
func (r *Resource) Release() {
	if !r.held {
		panic("sim: release of idle resource")
	}
	if len(r.waiters) == 0 {
		r.held = false
		return
	}
	// Shift the queue down rather than reslicing past its head, which
	// would shed the slice's front capacity and make the next Acquire
	// reallocate.
	next := r.waiters[0]
	n := copy(r.waiters, r.waiters[1:])
	r.waiters[n] = nil
	r.waiters = r.waiters[:n]
	r.e.Unblock(next)
}

// InUse returns 1 while the resource is held, 0 when it is free.
func (r *Resource) InUse() int {
	if r.held {
		return 1
	}
	return 0
}

// QueueLen returns the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.waiters) }
