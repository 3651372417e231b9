// Package stash is a gray-box managed second-level cache overlay: a
// quota-bounded, block-wise, write-back cache that an application layers
// between itself and the simulated OS, backed by a file on a fast tier
// disk (a DragonStash-style persistent stash). The OS's own file cache
// sits invisibly underneath — and that is the point. The stash cannot
// see what the kernel already caches, so a naive stash wastes quota
// double-caching blocks any read would have hit in memory anyway.
//
// The gray-box policy closes that gap with the paper's toolbox:
//
//   - FCCD (admission): every source fetch is timed through the shared
//     probe layer and classified by an online log-space 2-means split.
//     A fast fetch means the block came from the invisible OS cache, so
//     the stash declines to admit it; only disk-speed fetches — blocks
//     the OS demonstrably does not hold — earn a stash slot.
//   - FLDC (reclaim and write-back ordering): eviction prefers, among
//     the coldest LRU entries, the one lowest in the backing file, so
//     reclaim walks the stash device sequentially; Sync flushes dirty
//     blocks in (ino, page) order, the i-number layout order the source
//     file system actually allocated.
//
// The naive policy (always admit, strict LRU, FIFO write-back) is the
// control arm the experiment compares against.
//
// Degraded mode (SetOffline) models the stash's reason to exist: the
// slow source becomes unreachable, reads are served stash-only, and a
// miss surfaces as *OfflineMissError. The audit oracle scores both
// sides — a wasted admission at admit time, and whether an offline miss
// was a block the (unreachable) OS cache held, i.e. a block the
// admission policy declined and now regrets.
//
// Allocation discipline matches the kernel packages: the LRU and dirty
// FIFO are intrusive ring.Lists in slice arenas, slots recycle through
// a free stack, and the steady-state hit, admit and evict paths perform
// no heap allocation (guarded by AllocsPerRun tests).
package stash

import (
	"errors"
	"fmt"
	"sort"

	"graybox/internal/core/probe"
	"graybox/internal/ring"
	"graybox/internal/simos"
	"graybox/internal/telemetry"
)

// Config parameterizes one stash instance.
type Config struct {
	// Backing is the path of the stash's backing file, usually on the
	// machine's fast tier disk (e.g. "/mnt1/stash0"). Opened if it
	// exists, created otherwise.
	Backing string
	// QuotaBlocks bounds the number of blocks the stash may hold
	// (default 256).
	QuotaBlocks int
	// MaxDirty bounds the dirty FIFO; a write that pushes past it
	// synchronously writes the oldest dirty blocks back (default
	// QuotaBlocks/8, at least 1).
	MaxDirty int
	// GrayBox enables FCCD timed-probe admission and FLDC reclaim /
	// write-back ordering; false is the naive always-admit control arm.
	GrayBox bool
	// MinSep is the log-space separation the admission classifier must
	// see before trusting a fast/slow split (default
	// probe.MinLogSeparation, the paper's 8x rule).
	MinSep float64
}

func (c Config) withDefaults() Config {
	if c.QuotaBlocks == 0 {
		c.QuotaBlocks = 256
	}
	if c.MaxDirty == 0 {
		c.MaxDirty = c.QuotaBlocks / 8
		if c.MaxDirty < 1 {
			c.MaxDirty = 1
		}
	}
	if c.MinSep == 0 {
		c.MinSep = probe.MinLogSeparation
	}
	return c
}

// BlockID names one source-file block.
type BlockID struct {
	Ino  int64
	Page int64
}

// meta is one resident block's bookkeeping: its slot in the backing
// file and its positions in the LRU and dirty lists (dirtyH None when
// clean).
type meta struct {
	slot   int32
	lruH   ring.Handle
	dirtyH ring.Handle
}

// Stats aggregates stash counters.
type Stats struct {
	Hits, Misses    int64
	Admits, Rejects int64
	Evictions       int64
	Writebacks      int64
	ThrottleFlushes int64
	OfflineMisses   int64
}

// Stash is one second-level cache instance bound to a simulated
// process. It is not safe for concurrent use (the simulation is
// single-threaded per machine).
type Stash struct {
	os      *simos.OS
	cfg     Config
	ps      int64
	backing *simos.Fd
	meter   *probe.Meter
	split   *probe.OnlineSplit

	files  map[int64]*File    // source files by inode
	blocks map[BlockID]meta   // resident blocks
	lru    ring.List[BlockID] // front = most recent
	dirty  ring.List[BlockID] // front = oldest dirty (FIFO)

	freeSlots []int32 // recycled backing slots (stack)
	nextSlot  int32   // next never-used backing slot

	offline  bool
	stats    Stats
	flushBuf []BlockID // reused by Sync

	// Telemetry handles; nil (no-op) when the machine's telemetry is off.
	telHits, telMisses     *telemetry.Counter
	telAdmits, telRejects  *telemetry.Counter
	telEvicts, telWBs      *telemetry.Counter
	telOffMiss             *telemetry.Counter
	telOccupancy, telDirty *telemetry.Gauge
}

// ErrOffline is returned by operations that need the source while the
// stash is in degraded mode.
var ErrOffline = errors.New("stash: source offline")

// ErrStashFull is returned when an admission cannot evict (every
// candidate is dirty and the source is offline).
var ErrStashFull = errors.New("stash: full (all blocks dirty while offline)")

// OfflineMissError reports a degraded-mode read the stash could not
// serve.
type OfflineMissError struct {
	Path string
	Page int64
}

func (e *OfflineMissError) Error() string {
	return fmt.Sprintf("stash: offline miss: %s page %d", e.Path, e.Page)
}

// IsOfflineMiss reports whether err is an OfflineMissError.
func IsOfflineMiss(err error) bool {
	var om *OfflineMissError
	return errors.As(err, &om)
}

// New creates a stash over os's file systems. The backing file is
// opened (or created) immediately; telemetry handles come from the
// machine's registry and are free no-ops when telemetry is disabled.
func New(os *simos.OS, cfg Config) (*Stash, error) {
	cfg = cfg.withDefaults()
	if cfg.Backing == "" {
		return nil, errors.New("stash: no backing path")
	}
	backing, err := os.Open(cfg.Backing)
	if err != nil {
		backing, err = os.Create(cfg.Backing)
		if err != nil {
			return nil, err
		}
	}
	r := os.Telemetry()
	st := &Stash{
		os: os, cfg: cfg, ps: int64(os.PageSize()), backing: backing,
		meter:  probe.NewMeter(os, r.Histogram("stash.fetch_ns", telemetry.LatencyBuckets)),
		split:  probe.NewOnlineSplit(cfg.MinSep),
		files:  make(map[int64]*File),
		blocks: make(map[BlockID]meta, cfg.QuotaBlocks),

		telHits: r.Counter("stash.hits"), telMisses: r.Counter("stash.misses"),
		telAdmits: r.Counter("stash.admits"), telRejects: r.Counter("stash.rejects"),
		telEvicts: r.Counter("stash.evictions"), telWBs: r.Counter("stash.writebacks"),
		telOffMiss:   r.Counter("stash.offline_misses"),
		telOccupancy: r.Gauge("stash.occupancy"), telDirty: r.Gauge("stash.dirty"),
	}
	return st, nil
}

// Stats returns a snapshot of the counters.
func (st *Stash) Stats() Stats { return st.stats }

// Len returns the number of resident blocks.
func (st *Stash) Len() int { return len(st.blocks) }

// DirtyLen returns the number of dirty resident blocks.
func (st *Stash) DirtyLen() int { return st.dirty.Len() }

// SetOffline switches degraded mode: while on, reads are served
// stash-only (misses return *OfflineMissError), writes buffer in the
// stash without write-back, and Sync/Open fail with ErrOffline.
func (st *Stash) SetOffline(on bool) { st.offline = on }

// File is one source file read and written through the stash.
type File struct {
	st   *Stash
	src  *simos.Fd
	ino  int64
	size int64
	path string
}

// Open opens a source file for stash-mediated I/O. Re-opening a path
// already open returns the same *File. Fails with ErrOffline in
// degraded mode (only already-open files can be served).
func (st *Stash) Open(path string) (*File, error) {
	if st.offline {
		return nil, ErrOffline
	}
	fd, err := st.os.Open(path)
	if err != nil {
		return nil, err
	}
	if f, ok := st.files[fd.Ino()]; ok {
		return f, nil
	}
	f := &File{st: st, src: fd, ino: fd.Ino(), size: fd.Size(), path: path}
	st.files[f.ino] = f
	return f, nil
}

// Size returns the file's length as the stash sees it (source length
// plus any buffered extension).
func (f *File) Size() int64 { return f.size }

// Path returns the path the file was opened with.
func (f *File) Path() string { return f.path }

// Ino returns the source file's inode number — the Ino half of this
// file's BlockIDs (Manifest entries, Preload manifests).
func (f *File) Ino() int64 { return f.ino }

// blockLen returns how many valid bytes block pg holds.
func (f *File) blockLen(pg int64) int64 {
	n := f.size - pg*f.st.ps
	if n > f.st.ps {
		n = f.st.ps
	}
	return n
}

// Read reads n bytes at offset off through the stash, block by block.
// Hits are served from the backing file; online misses fetch from the
// source (and maybe admit); degraded-mode misses fail with
// *OfflineMissError.
func (f *File) Read(off, n int64) error {
	if n < 0 || off < 0 || off+n > f.size {
		return fmt.Errorf("stash: read [%d,%d) beyond size %d of %s", off, off+n, f.size, f.path)
	}
	if n == 0 {
		return nil
	}
	for pg := off / f.st.ps; pg <= (off+n-1)/f.st.ps; pg++ {
		if err := f.readBlock(pg); err != nil {
			return err
		}
	}
	return nil
}

// readBlock serves one block.
func (f *File) readBlock(pg int64) error {
	st := f.st
	id := BlockID{Ino: f.ino, Page: pg}
	if m, ok := st.blocks[id]; ok {
		st.lru.MoveToFront(m.lruH)
		st.stats.Hits++
		st.telHits.Inc()
		return st.backing.Read(int64(m.slot)*st.ps, f.blockLen(pg))
	}
	aud := st.os.Audit()
	if st.offline {
		st.stats.OfflineMisses++
		st.telOffMiss.Inc()
		aud.StashOfflineMiss(aud.OracleResidentPage(f.ino, pg))
		return &OfflineMissError{Path: f.path, Page: pg}
	}
	st.stats.Misses++
	st.telMisses.Inc()
	// Residency truth must be read before the fetch: the fetch itself
	// pulls the page into the OS cache, so truth read afterwards would
	// claim every block was resident.
	resident := aud.OracleResidentPage(f.ino, pg)
	start := st.meter.Begin()
	if err := f.src.Read(pg*st.ps, f.blockLen(pg)); err != nil {
		return err
	}
	elapsed := st.meter.End(start)
	admit, predicted := true, false
	if st.cfg.GrayBox {
		fast, confident := st.split.Observe(float64(elapsed))
		// A confidently fast fetch came from the invisible OS cache;
		// admitting it would double-cache. Unconfident samples default
		// to admit — an empty stash must not starve on cold start.
		predicted = fast && confident
		admit = !predicted
	}
	aud.StashAdmit(resident, predicted, admit, 1, int64(elapsed))
	if !admit {
		st.stats.Rejects++
		st.telRejects.Inc()
		return nil
	}
	return st.admit(id, false)
}

// Write writes n bytes at offset off through the stash (write-back:
// the source is updated by Sync, dirty-FIFO throttling, or eviction).
func (f *File) Write(off, n int64) error {
	if n < 0 || off < 0 {
		return fmt.Errorf("stash: bad write [%d,%d) of %s", off, off+n, f.path)
	}
	if n == 0 {
		return nil
	}
	st := f.st
	end := off + n
	for pg := off / st.ps; pg <= (end-1)/st.ps; pg++ {
		lo, hi := pg*st.ps, (pg+1)*st.ps
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		if err := f.writeBlock(pg, lo, hi-lo); err != nil {
			return err
		}
	}
	if end > f.size {
		f.size = end
	}
	return st.throttleDirty()
}

// writeBlock applies one block's worth of a write: [off, off+n) lies
// within block pg.
func (f *File) writeBlock(pg, off, n int64) error {
	st := f.st
	id := BlockID{Ino: f.ino, Page: pg}
	if m, ok := st.blocks[id]; ok {
		st.lru.MoveToFront(m.lruH)
		if err := st.backing.Write(int64(m.slot)*st.ps+(off-pg*st.ps), n); err != nil {
			return err
		}
		st.markDirty(id)
		return nil
	}
	// Not resident: a partial overwrite of existing source data needs
	// the rest of the block (read-modify-write) — impossible offline.
	partial := n < st.ps && pg*st.ps < f.size
	if partial {
		if st.offline {
			return &OfflineMissError{Path: f.path, Page: pg}
		}
		if err := f.src.Read(pg*st.ps, f.blockLen(pg)); err != nil {
			return err
		}
	}
	return st.admit(id, true)
}

// markDirty appends id to the dirty FIFO if it is clean.
func (st *Stash) markDirty(id BlockID) {
	m := st.blocks[id]
	if m.dirtyH == ring.None {
		m.dirtyH = st.dirty.PushBack(id)
		st.blocks[id] = m
		st.telDirty.Set(int64(st.dirty.Len()))
	}
}

// admit inserts id as a resident block, evicting to quota first, and
// writes it to the backing file. The stash stores whole blocks — a
// partially valid block still occupies (and writes) a full slot, so the
// backing extent always covers every live slot.
func (st *Stash) admit(id BlockID, dirtyBlock bool) error {
	for len(st.blocks) >= st.cfg.QuotaBlocks {
		if err := st.evictOne(); err != nil {
			return err
		}
	}
	slot := st.allocSlot()
	if err := st.backing.Write(int64(slot)*st.ps, st.ps); err != nil {
		st.freeSlots = append(st.freeSlots, slot)
		return err
	}
	m := meta{slot: slot, lruH: st.lru.PushFront(id)}
	st.blocks[id] = m
	if dirtyBlock {
		st.markDirty(id)
	}
	st.stats.Admits++
	st.telAdmits.Inc()
	st.telOccupancy.Set(int64(len(st.blocks)))
	return nil
}

// allocSlot returns a backing-file slot, recycling freed ones first.
func (st *Stash) allocSlot() int32 {
	if k := len(st.freeSlots); k > 0 {
		s := st.freeSlots[k-1]
		st.freeSlots = st.freeSlots[:k-1]
		return s
	}
	s := st.nextSlot
	st.nextSlot++
	return s
}

// reclaimWindow is how many of the coldest LRU entries the gray-box
// victim scan considers when picking the lowest backing slot.
const reclaimWindow = 8

// victim picks the block to evict, or None when no candidate exists.
// Naive policy: the LRU tail. Gray-box policy (FLDC): among the
// reclaimWindow coldest entries, the one lowest in the backing file,
// so successive reclaims walk the stash device sequentially instead of
// hopping between slots in recency order. Offline, dirty blocks are
// skipped (they cannot be written back).
func (st *Stash) victim() ring.Handle {
	best, bestSlot := ring.None, int32(0)
	scanned := 0
	for h := st.lru.Back(); h != ring.None; h = st.lru.Prev(h) {
		id := *st.lru.At(h)
		m := st.blocks[id]
		if st.offline && m.dirtyH != ring.None {
			continue
		}
		if !st.cfg.GrayBox {
			return h
		}
		if best == ring.None || m.slot < bestSlot {
			best, bestSlot = h, m.slot
		}
		if scanned++; scanned >= reclaimWindow {
			break
		}
	}
	return best
}

// evictOne removes one block, writing it back first when dirty.
func (st *Stash) evictOne() error {
	h := st.victim()
	if h == ring.None {
		return ErrStashFull
	}
	id := *st.lru.At(h)
	m := st.blocks[id]
	if m.dirtyH != ring.None {
		st.dirty.Remove(m.dirtyH)
		st.telDirty.Set(int64(st.dirty.Len()))
		if err := st.writeBack(id, m.slot); err != nil {
			return err
		}
	}
	st.lru.Remove(h)
	delete(st.blocks, id)
	st.freeSlots = append(st.freeSlots, m.slot)
	st.stats.Evictions++
	st.telEvicts.Inc()
	st.telOccupancy.Set(int64(len(st.blocks)))
	return nil
}

// writeBack copies one block from the backing file to its source.
func (st *Stash) writeBack(id BlockID, slot int32) error {
	f := st.files[id.Ino]
	if f == nil {
		return fmt.Errorf("stash: dirty block of unknown ino %d", id.Ino)
	}
	n := f.blockLen(id.Page)
	if err := st.backing.Read(int64(slot)*st.ps, n); err != nil {
		return err
	}
	if err := f.src.Write(id.Page*st.ps, n); err != nil {
		return err
	}
	st.stats.Writebacks++
	st.telWBs.Inc()
	return nil
}

// throttleDirty synchronously writes back the oldest dirty blocks until
// the FIFO fits MaxDirty again. Offline, writes accumulate unthrottled
// (there is nowhere to flush to).
func (st *Stash) throttleDirty() error {
	for st.dirty.Len() > st.cfg.MaxDirty && !st.offline {
		h := st.dirty.Front()
		id := *st.dirty.At(h)
		m := st.blocks[id]
		st.dirty.Remove(h)
		m.dirtyH = ring.None
		st.blocks[id] = m
		st.telDirty.Set(int64(st.dirty.Len()))
		if err := st.writeBack(id, m.slot); err != nil {
			return err
		}
		st.stats.ThrottleFlushes++
	}
	return nil
}

// Sync writes every dirty block back to its source. The gray-box
// policy flushes in (ino, page) order — the i-number order FLDC
// establishes as the source file system's layout order — so the slow
// disk sees a sequential pass; the naive policy flushes in FIFO order.
// Fails with ErrOffline in degraded mode.
func (st *Stash) Sync() error {
	if st.offline {
		return ErrOffline
	}
	st.flushBuf = st.flushBuf[:0]
	for h := st.dirty.Front(); h != ring.None; h = st.dirty.Next(h) {
		st.flushBuf = append(st.flushBuf, *st.dirty.At(h))
	}
	if st.cfg.GrayBox {
		sort.Slice(st.flushBuf, func(i, j int) bool {
			a, b := st.flushBuf[i], st.flushBuf[j]
			if a.Ino != b.Ino {
				return a.Ino < b.Ino
			}
			return a.Page < b.Page
		})
	}
	for _, id := range st.flushBuf {
		m := st.blocks[id]
		st.dirty.Remove(m.dirtyH)
		m.dirtyH = ring.None
		st.blocks[id] = m
		if err := st.writeBack(id, m.slot); err != nil {
			return err
		}
	}
	st.telDirty.Set(0)
	return nil
}
