// Package cache implements the OS file/buffer cache with three
// replacement policies, one for each platform the paper studies:
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
// Each policy keeps its order in one circular list threaded through the
// cache's page records (prev/next arena indices), the way the dirty
// FIFOs are, so steady-state insert/touch/victim cycles allocate nothing
// and a snapshot copies the order along with the arena.
package cache

import "fmt"

// PageID identifies one cached file page.
type PageID struct {
	Ino   int64
	Index int64 // page number within the file
}

// Policy selects a cache's replacement policy.
type Policy uint8

// The policies, one per platform (see the package comment).
const (
	Clock     Policy = iota // Linux 2.2
	LRU                     // NetBSD 1.5
	HoldFirst               // Solaris 7
)

var policyNames = [...]string{Clock: "clock", LRU: "lru", HoldFirst: "holdfirst"}

// String returns the policy's name, which prefixes the cache's metrics.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", p)
}

// The replacement order is a circular list through the records' prev and
// next links, anchored at the hand (nilPage when no page is cached). For
// Clock the hand is the clock hand; for LRU and HoldFirst it is the
// front of the order, and its prev is the back. LRU's front is the most
// recently used page, HoldFirst's the oldest insertion.

// inserted puts a newly cached record on the order, just before the
// hand: Clock gives it a full sweep before it can go, LRU makes it the
// front, and HoldFirst leaves it at the back, the next to go.
func (c *Cache) inserted(i int32) {
	if c.hand == nilPage {
		c.arena[i].prev, c.arena[i].next = i, i
		c.hand = i
	} else {
		c.linkBefore(i, c.hand)
	}
	switch c.policy {
	case Clock:
		c.arena[i].ref = true
	case LRU:
		c.hand = i
	}
}

// touched records a hit on record i. HoldFirst ignores hits.
func (c *Cache) touched(i int32) {
	switch c.policy {
	case Clock:
		c.arena[i].ref = true
	case LRU:
		if i != c.hand {
			c.unlink(i)
			c.linkBefore(i, c.hand)
			c.hand = i
		}
	}
}

// victim selects the record to evict and takes it off the order; ok is
// false when no page is cached. Clock sweeps from the hand, clearing
// reference bits, and so stops within one lap; LRU and HoldFirst take
// the back.
func (c *Cache) victim() (i int32, ok bool) {
	if c.hand == nilPage {
		return nilPage, false
	}
	i = c.arena[c.hand].prev
	if c.policy == Clock {
		for c.arena[c.hand].ref {
			c.arena[c.hand].ref = false
			c.hand = c.arena[c.hand].next
		}
		i = c.hand
	}
	c.unlink(i)
	return i, true
}

// unlink takes record i off the order; a hand on it moves to the next
// record.
func (c *Cache) unlink(i int32) {
	pg := &c.arena[i]
	if pg.next == i { // the last page
		c.hand = nilPage
		return
	}
	c.arena[pg.prev].next = pg.next
	c.arena[pg.next].prev = pg.prev
	if c.hand == i {
		c.hand = pg.next
	}
}

// linkBefore links record i into the order just before record at.
func (c *Cache) linkBefore(i, at int32) {
	prev := c.arena[at].prev
	c.arena[i].prev, c.arena[i].next = prev, at
	c.arena[prev].next = i
	c.arena[at].prev = i
}
