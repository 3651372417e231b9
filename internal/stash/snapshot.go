package stash

import (
	"fmt"

	"graybox/internal/ring"
)

// This file is the stash's snapshot story. A platform snapshot
// (simos.Snapshot/Fork) must be taken on a pristine machine — no I/O,
// no processes — so an *aged* stash cannot be built before the snapshot
// and carried across. Instead the stash models what its real-world
// counterpart (a DragonStash-style persistent cache) actually does:
// the block index survives as data, and a restart reloads it instantly.
// Manifest exports that index deterministically; Preload installs one
// into a fresh stash with zero virtual-time cost. A sweep's trial
// therefore builds its machine cold, creates the source corpus and a
// pre-sized backing file without simulated I/O (CreateSized), and
// Preloads the same aged manifest — every trial starts from an
// identical aged stash without re-simulating the aging I/O.

// Manifest returns the resident blocks in recency order, most recent
// first. The order comes from the intrusive LRU ring, never from map
// iteration, so it is deterministic and Preload(Manifest()) reproduces
// the recency state exactly.
func (st *Stash) Manifest() []BlockID {
	out := make([]BlockID, 0, st.lru.Len())
	for h := st.lru.Front(); h != ring.None; h = st.lru.Next(h) {
		out = append(out, *st.lru.At(h))
	}
	return out
}

// Preload installs ids (most recent first) into an empty stash as
// clean resident blocks in sequential backing slots, charging no
// virtual time — the persistent-index reload of a stash restart. The
// backing file must already span the preloaded slots (size it with
// CreateSized when building the platform); the stash must be empty and
// the manifest must fit the quota.
func (st *Stash) Preload(ids []BlockID) error {
	if len(st.blocks) != 0 {
		return fmt.Errorf("stash: Preload into non-empty stash (%d blocks)", len(st.blocks))
	}
	if len(ids) > st.cfg.QuotaBlocks {
		return fmt.Errorf("stash: manifest of %d blocks exceeds quota %d", len(ids), st.cfg.QuotaBlocks)
	}
	if need := int64(len(ids)) * st.ps; st.backing.Size() < need {
		return fmt.Errorf("stash: backing %s holds %d bytes, manifest needs %d (pre-size it with CreateSized)",
			st.cfg.Backing, st.backing.Size(), need)
	}
	for _, id := range ids {
		if _, ok := st.blocks[id]; ok {
			return fmt.Errorf("stash: duplicate block %+v in manifest", id)
		}
		st.blocks[id] = meta{slot: st.allocSlot(), lruH: st.lru.PushBack(id)}
	}
	st.telOccupancy.Set(int64(len(st.blocks)))
	return nil
}
