package sim

// The engine's pending-event queue: a binary min-heap ordered by
// (at, seq), and a free list of recycled event records.

// eventHeap is a binary min-heap ordered by (at, seq). It is a concrete
// implementation — no container/heap, so Push/Pop involve no interface
// boxing and no indirect calls on the hot path.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		smallest := i
		if l := 2*i + 1; l < n && h.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// queue is the engine's pending-event queue: the heap and the
// recycled-event free list. An event leaves the heap only by firing.
type queue struct {
	events eventHeap
	free   *event // recycled-event free list
}

// recycle clears the event, dropping its callback and process, and puts
// it on the free list.
func (q *queue) recycle(ev *event) {
	ev.fn, ev.proc, ev.kind = nil, nil, evWake
	ev.next = q.free
	q.free = ev
}

// take pops a recycled event struct (or allocates one).
func (q *queue) take() *event {
	ev := q.free
	if ev != nil {
		q.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	return ev
}

// insert adds a stamped event to the heap. A full heap moves to an array
// of twice its capacity: append grows large slices by about a quarter, so
// a burst of 10⁵ pending timers would allocate over twice the bytes.
func (q *queue) insert(ev *event) {
	h := q.events
	if len(h) == cap(h) {
		h = append(make(eventHeap, 0, 2*cap(h)+64), h...)
	}
	h = append(h, ev)
	h.siftUp(len(h) - 1)
	q.events = h
}

// popMin removes and returns the earliest event in the heap.
func (q *queue) popMin() *event {
	h := q.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	q.events = h[:n]
	q.events.siftDown(0)
	return ev
}

// peek returns the earliest pending event, or nil if none remain.
func (q *queue) peek() *event {
	if len(q.events) == 0 {
		return nil
	}
	return q.events[0]
}
