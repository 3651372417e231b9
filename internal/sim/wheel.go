package sim

// The engine's pending-event queue: a two-level timing wheel in front of
// a binary min-heap. Events fire in strict (at, seq) order whichever
// structure holds them.

// Timing-wheel geometry (DESIGN.md §14). A tick is 2^wheelShift
// nanoseconds (~4.1 µs); level 0 resolves one tick per slot, level 1 one
// 256-tick block per slot, so the two levels cover 65536 ticks (~268 ms)
// of look-ahead — comfortably past the sleep/IO delays that dominate the
// simulator. Events beyond the horizon (and same-tick events, which must
// keep strict (at, seq) order) overflow to the heap.
const (
	wheelShift   = 12
	wheelBits    = 8
	wheelSlots   = 1 << wheelBits
	wheelMask    = wheelSlots - 1
	wheelHorizon = wheelSlots * wheelSlots

	// defaultWheelMin is the live-event population below which inserts
	// bypass the wheel entirely: for the tiny heaps of single-process
	// experiments the heap is already cheap, and skipping the wheel keeps
	// drain bookkeeping off their hot path.
	defaultWheelMin = 64
)

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

// lane is the engine's pending-event queue: a heap, the two-level wheel
// in front of it, and the recycled-event free list. The heap holds
// len(events) - (Engine.live - wheelLive) tombstones.
type lane struct {
	events eventHeap
	free   *event // recycled-event free list

	// Hierarchical timing wheel. Slots hold unordered singly-linked
	// chains (through event.next); every chained event has tick >=
	// wheelTick, and firing always goes through the heap (drained in
	// peekLive), so wheel placement never affects (at, seq) order.
	l0, l1    [wheelSlots]*event
	wheelTick int64 // current L0 position, in ticks
	wheelLive int   // live events chained in the wheel
	wheelDead int   // canceled events still chained in the wheel
	l0Count   int   // chained events (live + dead) per level, for
	l1Count   int   // empty-stretch skipping and refill short-circuits
}

// recycle bumps the event's generation (invalidating outstanding handles)
// and puts it on the free list.
func (ln *lane) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.proc, ev.kind = nil, nil, evWake
	ev.next = ln.free
	ln.free = ev
}

// take pops a recycled event struct (or allocates one).
func (ln *lane) take() *event {
	ev := ln.free
	if ev != nil {
		ln.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	return ev
}

// heapInsert adds a stamped event to the heap. It must not touch seq:
// wheel drains reuse it to move events without re-stamping them.
func (ln *lane) heapInsert(ev *event) {
	ev.loc = locHeap
	ln.events = append(ln.events, ev)
	ln.events.siftUp(len(ln.events) - 1)
}

// place routes a stamped event to a wheel slot or the heap. Same-tick and
// past-tick events go to the heap (they may be due before the wheel next
// advances); so do events beyond the wheel horizon, and everything while
// the live population is too small for the wheel to pay for itself. The
// caller has already counted ev in e.live.
func (ln *lane) place(e *Engine, ev *event) {
	if ln.wheelLive == 0 {
		if e.live <= e.wheelMin {
			ln.heapInsert(ev)
			return
		}
		// (Re)activate the wheel at the current tick. Chains are empty
		// here — wheelLive only reaches zero once every chained event has
		// been drained or swept — so the position reset is safe.
		ln.wheelTick = int64(e.now) >> wheelShift
	}
	tk := int64(ev.at) >> wheelShift
	switch dt := tk - ln.wheelTick; {
	case dt < 1 || dt >= wheelHorizon:
		ln.heapInsert(ev)
		return
	case dt < wheelSlots:
		s := tk & wheelMask
		ev.next = ln.l0[s]
		ln.l0[s] = ev
		ln.l0Count++
	default:
		s := (tk >> wheelBits) & wheelMask
		ev.next = ln.l1[s]
		ln.l1[s] = ev
		ln.l1Count++
	}
	ev.loc = locWheel
	ln.wheelLive++
}

// refill moves the L1 slot for the 256-tick block wheelTick just entered
// down into L0. Every live event in the slot provably belongs to the
// current block: inserts are bounded to the 65536-tick horizon, so two
// events one full L1 lap apart can never share a slot.
func (ln *lane) refill() {
	s := (ln.wheelTick >> wheelBits) & wheelMask
	ev := ln.l1[s]
	ln.l1[s] = nil
	for ev != nil {
		next := ev.next
		ev.next = nil
		ln.l1Count--
		if ev.dead() {
			ln.wheelDead--
			ln.recycle(ev)
		} else {
			tk := int64(ev.at) >> wheelShift
			if tk>>wheelBits != ln.wheelTick>>wheelBits {
				panic("sim: wheel refill found event outside its block")
			}
			i := tk & wheelMask
			ev.next = ln.l0[i]
			ln.l0[i] = ev
			ln.l0Count++
		}
		ev = next
	}
}

// dumpSlot empties the current L0 slot: live events move to the heap with
// their original (at, seq) stamps, tombstones are recycled.
func (ln *lane) dumpSlot() {
	s := ln.wheelTick & wheelMask
	ev := ln.l0[s]
	ln.l0[s] = nil
	for ev != nil {
		next := ev.next
		ev.next = nil
		ln.l0Count--
		if ev.dead() {
			ln.wheelDead--
			ln.recycle(ev)
		} else {
			ln.wheelLive--
			ln.heapInsert(ev)
		}
		ev = next
	}
}

// advanceWheel drains every wheel slot with tick < target into the heap
// and moves the wheel position to target. Empty 256-tick stretches are
// skipped in O(1) per block via the chained-event counters.
func (ln *lane) advanceWheel(target int64) {
	for ln.wheelTick < target {
		if ln.wheelLive == 0 {
			ln.wheelTick = target
			return
		}
		if ln.wheelTick&wheelMask == 0 && ln.l1Count > 0 {
			ln.refill()
		}
		if ln.l0Count == 0 {
			next := (ln.wheelTick | wheelMask) + 1
			if next > target {
				next = target
			}
			ln.wheelTick = next
			continue
		}
		ln.dumpSlot()
		ln.wheelTick++
	}
}

// advanceToHeap advances the wheel until the heap gains an event (used
// when the heap is empty but the wheel is not).
func (ln *lane) advanceToHeap() {
	for len(ln.events) == 0 && ln.wheelLive > 0 {
		if ln.wheelTick&wheelMask == 0 && ln.l1Count > 0 {
			ln.refill()
		}
		if ln.l0Count == 0 {
			ln.wheelTick = (ln.wheelTick | wheelMask) + 1
			continue
		}
		ln.dumpSlot()
		ln.wheelTick++
	}
}

// sweepWheel unchains every tombstone in the wheel. It runs when cancels
// empty the wheel of live events (restoring the chains-empty invariant
// behind wheel reactivation) or when tombstones outnumber live events.
func (ln *lane) sweepWheel() {
	for i := range ln.l0 {
		ln.l0[i] = ln.sweepChain(ln.l0[i], &ln.l0Count)
	}
	for i := range ln.l1 {
		ln.l1[i] = ln.sweepChain(ln.l1[i], &ln.l1Count)
	}
}

// sweepChain filters tombstones out of one slot chain. Chains are
// unordered, so the reversal it causes is harmless.
func (ln *lane) sweepChain(head *event, count *int) *event {
	var out *event
	for ev := head; ev != nil; {
		next := ev.next
		if ev.dead() {
			*count--
			ln.wheelDead--
			ev.next = nil
			ln.recycle(ev)
		} else {
			ev.next = out
			out = ev
		}
		ev = next
	}
	return out
}

// popMin removes and returns the earliest event in the heap.
func (ln *lane) popMin() *event {
	h := ln.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	ln.events = h[:n]
	ln.events.siftDown(0)
	return ev
}

// peekLive discards tombstones at the top of the heap, drains any wheel
// slot that could precede the heap's minimum, and returns the earliest
// live event overall (always at the top of the heap), or nil if none
// remain. After it returns an event h, every wheel event has
// tick >= wheelTick > tick(h.at) and therefore fires strictly after h,
// so the heap's (at, seq) order is the firing order.
func (ln *lane) peekLive() *event {
	for {
		var h *event
		for len(ln.events) > 0 {
			if ev := ln.events[0]; !ev.dead() {
				h = ev
				break
			}
			ln.recycle(ln.popMin())
		}
		if ln.wheelLive == 0 {
			return h
		}
		if h != nil {
			tk := int64(h.at) >> wheelShift
			if tk < ln.wheelTick {
				return h
			}
			ln.advanceWheel(tk + 1)
		} else {
			ln.advanceToHeap()
			if ln.wheelLive == 0 && len(ln.events) == 0 {
				return nil
			}
		}
	}
}

// compact rebuilds the heap without its tombstones.
func (ln *lane) compact() {
	h := ln.events
	kept := h[:0]
	for _, ev := range h {
		if !ev.dead() {
			kept = append(kept, ev)
		} else {
			ln.recycle(ev)
		}
	}
	for i := range h[len(kept):] {
		h[len(kept)+i] = nil
	}
	ln.events = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.siftDown(i)
	}
}
