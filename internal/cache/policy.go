// Package cache implements the OS file/buffer cache with pluggable
// replacement policies. Three policies model the three platforms the
// paper studies:
//
//   - Clock: second-chance LRU approximation (Linux 2.2's page cache).
//     Evicts in long, spatially-correlated chunks under sequential access,
//     which is the property FCCD's sparse probing relies on (Figure 1).
//   - LRU: strict LRU over a small fixed-size buffer cache (NetBSD 1.5's
//     pre-UVM 64 MB file cache).
//   - HoldFirst: scan-resistant policy approximating Solaris 7's observed
//     behavior: once the cache fills, the most recently inserted page is
//     recycled, so early residents are "quite difficult to dislodge".
//
// All three track pages in intrusive index-based rings (internal/ring)
// rather than container/list, so steady-state insert/touch/victim cycles
// allocate nothing: a victim's arena slot is reused by the next insert.
// A policy names pages by the cache's arena slot and finds a page's ring
// handle in a slice indexed by that slot, so it keeps no map.
package cache

import (
	"slices"

	"graybox/internal/ring"
)

// PageID identifies one cached file page.
type PageID struct {
	Ino   int64
	Index int64 // page number within the file
}

// Policy is a replacement policy over cached pages, each named by its
// slot in the cache's page arena. Implementations need not be safe for
// concurrent use; the simulation is single-threaded.
type Policy interface {
	Name() string
	// Inserted records a newly cached page.
	Inserted(slot int32)
	// Touched records a hit on a cached page.
	Touched(slot int32)
	// Victim selects and removes the page to evict. ok is false when the
	// policy tracks no pages.
	Victim() (slot int32, ok bool)
	// Removed drops a page evicted or invalidated externally.
	Removed(slot int32)
	// Len returns the number of tracked pages.
	Len() int
	// Clone returns an independent deep copy of the policy's state, for
	// platform snapshots. The copy must reproduce eviction order exactly.
	Clone() Policy
}

// slotHandles maps arena slots to ring handles; ring.None marks a slot
// the policy does not track.
type slotHandles []ring.Handle

// set records slot's handle, growing the slice to reach slot. It
// appends one None at a time: append's doubling amortizes the growth,
// and no temporary slice is made (a race build allocates one for
// append(s, make(...)...)).
func (s *slotHandles) set(slot int32, h ring.Handle) {
	for int(slot) >= len(*s) {
		*s = append(*s, ring.None)
	}
	(*s)[slot] = h
}

// get returns slot's handle; None if untracked.
func (s slotHandles) get(slot int32) ring.Handle {
	if int(slot) >= len(s) {
		return ring.None
	}
	return s[slot]
}

// take returns slot's handle and forgets it; None if untracked.
func (s slotHandles) take(slot int32) ring.Handle {
	if int(slot) >= len(s) {
		return ring.None
	}
	h := s[slot]
	s[slot] = ring.None
	return h
}

// --- Clock ---

type clockEntry struct {
	slot int32
	ref  bool
}

// ClockPolicy is the classic clock (second-chance) algorithm.
type ClockPolicy struct {
	ring ring.List[clockEntry]
	pos  slotHandles
	hand ring.Handle // None when the ring is empty
}

// NewClock returns an empty clock policy.
func NewClock() *ClockPolicy { return &ClockPolicy{} }

func (c *ClockPolicy) Name() string { return "clock" }
func (c *ClockPolicy) Len() int     { return c.ring.Len() }

func (c *ClockPolicy) Inserted(slot int32) {
	ent := clockEntry{slot: slot, ref: true}
	var h ring.Handle
	if c.hand == ring.None {
		h = c.ring.PushBack(ent)
		c.hand = h
	} else {
		// Insert just before the hand: the new page gets a full sweep
		// before it can be victimized.
		h = c.ring.InsertBefore(ent, c.hand)
	}
	c.pos.set(slot, h)
}

func (c *ClockPolicy) Touched(slot int32) {
	if h := c.pos.get(slot); h != ring.None {
		c.ring.At(h).ref = true
	}
}

func (c *ClockPolicy) Victim() (int32, bool) {
	if c.ring.Len() == 0 {
		return nilPage, false
	}
	// At most two sweeps: the first clears all reference bits, so the
	// second must find a victim.
	for i := 0; i < 2*c.ring.Len(); i++ {
		ent := c.ring.At(c.hand)
		if ent.ref {
			ent.ref = false
			c.hand = c.ring.NextCyclic(c.hand)
			continue
		}
		victim := c.hand
		c.hand = c.ring.NextCyclic(c.hand)
		if c.hand == victim { // last page
			c.hand = ring.None
		}
		slot := c.ring.Remove(victim).slot
		c.pos[slot] = ring.None
		return slot, true
	}
	panic("cache: clock failed to find a victim")
}

func (c *ClockPolicy) Clone() Policy {
	return &ClockPolicy{ring: c.ring.Clone(), pos: slices.Clone(c.pos), hand: c.hand}
}

func (c *ClockPolicy) Removed(slot int32) {
	h := c.pos.take(slot)
	if h == ring.None {
		return
	}
	if c.hand == h {
		c.hand = c.ring.NextCyclic(h)
		if c.hand == h {
			c.hand = ring.None
		}
	}
	c.ring.Remove(h)
}

// --- LRU ---

// LRUPolicy is strict least-recently-used replacement.
type LRUPolicy struct {
	order ring.List[int32] // front = most recent
	pos   slotHandles
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRUPolicy { return &LRUPolicy{} }

func (l *LRUPolicy) Name() string { return "lru" }
func (l *LRUPolicy) Len() int     { return l.order.Len() }

func (l *LRUPolicy) Inserted(slot int32) { l.pos.set(slot, l.order.PushFront(slot)) }

func (l *LRUPolicy) Touched(slot int32) {
	if h := l.pos.get(slot); h != ring.None {
		l.order.MoveToFront(h)
	}
}

func (l *LRUPolicy) Victim() (int32, bool) {
	back := l.order.Back()
	if back == ring.None {
		return nilPage, false
	}
	slot := l.order.Remove(back)
	l.pos[slot] = ring.None
	return slot, true
}

func (l *LRUPolicy) Clone() Policy {
	return &LRUPolicy{order: l.order.Clone(), pos: slices.Clone(l.pos)}
}

func (l *LRUPolicy) Removed(slot int32) {
	if h := l.pos.take(slot); h != ring.None {
		l.order.Remove(h)
	}
}

// --- HoldFirst ---

// HoldFirstPolicy retains pages in insertion order and recycles the most
// recently inserted page, so the earliest residents are effectively
// pinned. Touches do not reorder anything.
type HoldFirstPolicy struct {
	order ring.List[int32] // front = oldest insertion
	pos   slotHandles
}

// NewHoldFirst returns an empty hold-first policy.
func NewHoldFirst() *HoldFirstPolicy { return &HoldFirstPolicy{} }

func (h *HoldFirstPolicy) Name() string { return "holdfirst" }
func (h *HoldFirstPolicy) Len() int     { return h.order.Len() }

func (h *HoldFirstPolicy) Inserted(slot int32) { h.pos.set(slot, h.order.PushBack(slot)) }

func (h *HoldFirstPolicy) Touched(slot int32) {}

func (h *HoldFirstPolicy) Victim() (int32, bool) {
	back := h.order.Back()
	if back == ring.None {
		return nilPage, false
	}
	slot := h.order.Remove(back)
	h.pos[slot] = ring.None
	return slot, true
}

func (h *HoldFirstPolicy) Clone() Policy {
	return &HoldFirstPolicy{order: h.order.Clone(), pos: slices.Clone(h.pos)}
}

func (h *HoldFirstPolicy) Removed(slot int32) {
	if hd := h.pos.take(slot); hd != ring.None {
		h.order.Remove(hd)
	}
}
