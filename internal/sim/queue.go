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
// recycled-event free list. A canceled event stays in the heap as a
// tombstone until it surfaces or compact drops it, so the heap holds
// len(events) - Engine.live tombstones.
type queue struct {
	events eventHeap
	free   *event // recycled-event free list
}

// recycle clears the event and puts it on the free list. Outstanding
// handles stay inert: Cancel skips a dead event, and the next push
// stamps a fresh seq that no outstanding handle carries.
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

// peekLive discards tombstones at the top of the heap and returns the
// earliest live event, or nil if none remain.
func (q *queue) peekLive() *event {
	for len(q.events) > 0 {
		if ev := q.events[0]; !ev.dead() {
			return ev
		}
		q.recycle(q.popMin())
	}
	return nil
}

// compact rebuilds the heap without its tombstones.
func (q *queue) compact() {
	h := q.events
	kept := h[:0]
	for _, ev := range h {
		if !ev.dead() {
			kept = append(kept, ev)
		} else {
			q.recycle(ev)
		}
	}
	for i := range h[len(kept):] {
		h[len(kept)+i] = nil
	}
	q.events = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.siftDown(i)
	}
}
