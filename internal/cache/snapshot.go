package cache

import (
	"fmt"

	"graybox/internal/disk"
)

// Snapshot is a deep copy of a cache's contents, taken with
// Cache.Snapshot and restored into a fresh cache with Cache.Restore.
// It is immutable after capture and safe to restore from concurrently
// (every Restore deep-copies), which is what lets parallel sweep trials
// fork the same aged platform.
type Snapshot struct {
	st     state
	policy Policy
}

// Snapshot deep-copies the cache's state: the page arena (with its free
// list, replacement order and per-disk dirty FIFOs intact), the page
// index, the disk table and the counters. The disk table's pointers are
// captured as-is; Restore remaps them into the destination machine.
func (c *Cache) Snapshot() *Snapshot {
	return &Snapshot{st: c.state.clone(0), policy: c.policy}
}

// Restore fills a freshly built, empty cache from s. remap translates
// each disk in the captured disk table to the destination machine's
// corresponding disk (snapshots hold pointers into the source machine).
// For pool-backed caches the restored pages' frames are grabbed from the
// destination pool, so pool accounting matches the source exactly. The
// cache must have the snapshot's policy.
func (c *Cache) Restore(s *Snapshot, remap func(*disk.Disk) *disk.Disk) {
	if c.resident != 0 || len(c.arena) != 0 {
		panic("cache: Restore into a non-empty cache")
	}
	if s.policy != c.policy {
		panic(fmt.Sprintf("cache: Restore of a snapshot with policy %v into a cache with policy %v", s.policy, c.policy))
	}
	// Reserve the room the arena's first doubling would add, so a trial
	// that caches more than its snapshot held does not copy the whole
	// arena again on its first new page.
	c.state = s.st.clone(c.arenaGrowth(len(s.st.arena)))
	for k := range c.disks {
		if d := c.disks[k].d; d != nil {
			c.disks[k].d = remap(d)
		}
	}
	if c.pool != nil {
		for range c.resident {
			if !c.pool.TryGrabFrame() {
				panic("cache: Restore exceeds destination pool capacity")
			}
		}
	}
	c.telSync()
}
