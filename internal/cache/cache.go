package cache

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"graybox/internal/disk"
	"graybox/internal/mem"
	"graybox/internal/sim"
	"graybox/internal/telemetry"
)

// BlockAddr locates a page's backing storage for write-back.
type BlockAddr struct {
	Disk  *disk.Disk
	Block int64
}

// Config sets a cache's size behavior.
type Config struct {
	// Capacity is the number of frames a cache without a pool owns,
	// outside physical memory (NetBSD 1.5's fixed-size buffer cache). A
	// pool-backed cache (the Linux/Solaris unified cache) leaves it 0:
	// the pool is its only limit.
	Capacity int
	// FloorPages is the minimum residency a pool-backed cache defends
	// against pool reclaim.
	FloorPages int
	// MaxDirty throttles writers: beyond this many dirty pages, the
	// dirtying process synchronously cleans pages (bdflush-style).
	MaxDirty int
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses    int64
	Evictions       int64
	Writebacks      int64
	ThrottleFlushes int64
}

// nilPage is the null index into a cache's page arena.
const nilPage int32 = -1

// cpage is one cached page's record. Records live in the cache's slice
// arena and are addressed by index (slot): evicting a page pushes its
// slot onto the free list and the next insert reuses it, so steady-state
// cache traffic allocates nothing. A record holds no pointers — its disk
// is an index into the cache's disk table — so the garbage collector
// never scans the arena. A record names its file by its entry in the
// page index (file), so removing a page from the index needs no map
// lookup.
type cpage struct {
	page  int64 // page number within the file
	block int64
	// stamp orders dirty pages across disks: the page dirtied earliest
	// has the smallest stamp.
	stamp uint64
	// dirtyPrev/dirtyNext are arena indices forming the dirty FIFO of
	// the page's disk (oldest at head); nilPage when clean or at an end.
	dirtyPrev, dirtyNext int32
	// prev/next link the replacement order (policy.go); while the slot
	// is free, next links the free list instead.
	prev, next int32
	file       int32  // index into fileTab
	disk       uint16 // index into Cache.disks
	dirty      bool
	ref        bool // Clock's reference bit
}

// dirtyQueue is one entry of a cache's disk table: a disk its pages are
// backed by, and the intrusive FIFO of that disk's dirty pages.
type dirtyQueue struct {
	d          *disk.Disk
	head, tail int32
}

// fileIndex is one inode's entry in the page index: slots[k] is the
// arena slot of page k, or nilPage when that page is not cached, and n
// counts the cached pages.
type fileIndex struct {
	ino   int64
	slots []int32
	n     int
}

// state is the part of a Cache that a Snapshot copies.
type state struct {
	// arena holds every cpage record ever created; freePage heads the
	// recycled-slot list. Records are referred to by index everywhere —
	// *cpage pointers must not be held across an arena append (Insert).
	arena    []cpage
	freePage int32
	resident int
	// hand anchors the replacement order through the cached records
	// (policy.go); nilPage when none is cached.
	hand int32

	// The page index: files maps an inode to its entry in fileTab, and
	// the entry maps page numbers to arena slots. An inode's entry is
	// deleted from files when its last page goes, and its fileTab slot is
	// pushed on freeFiles for reuse.
	files     map[int64]int32
	fileTab   []fileIndex
	freeFiles []int32

	// disks is the disk table, one dirty FIFO per disk; dirtyLen counts
	// dirty pages over all of them and stamp is the last dirty stamp.
	disks    []dirtyQueue
	dirtyLen int
	stamp    uint64

	stats Stats
}

// Cache is the simulated OS file cache.
type Cache struct {
	cfg    Config
	pool   *mem.Pool // nil when the cache owns its frames
	policy Policy

	state

	// Telemetry handles; nil (no-op) until Instrument is called.
	telHits, telMisses       *telemetry.Counter
	telEvictions, telWrbacks *telemetry.Counter
	telOccupancy, telDirty   *telemetry.Gauge
}

// New creates a cache. With a nil pool the cache owns cfg.Capacity
// frames; with a pool it takes its frames from the pool, which sizes it,
// and cfg.Capacity must be 0.
func New(cfg Config, policy Policy, pool *mem.Pool) *Cache {
	if pool == nil && cfg.Capacity <= 0 {
		panic(fmt.Sprintf("cache: a cache without a pool needs a positive capacity, not %d", cfg.Capacity))
	}
	if pool != nil && cfg.Capacity != 0 {
		panic(fmt.Sprintf("cache: a pool-backed cache is sized by its pool, not by capacity %d", cfg.Capacity))
	}
	if int(policy) >= len(policyNames) {
		panic(fmt.Sprintf("cache: unknown policy %d", policy))
	}
	if cfg.MaxDirty <= 0 {
		cfg.MaxDirty = 1 << 30 // effectively unthrottled
	}
	return &Cache{
		cfg: cfg, pool: pool, policy: policy,
		state: state{freePage: nilPage, hand: nilPage, files: make(map[int64]int32)},
	}
}

// Instrument registers the cache's metrics — hit/miss/eviction counters
// and occupancy gauges, named per replacement policy — in r. A nil
// registry leaves the handles nil, which keeps every update a no-op.
func (c *Cache) Instrument(r *telemetry.Registry) {
	prefix := "cache." + c.policy.String() + "."
	c.telHits = r.Counter(prefix + "hits")
	c.telMisses = r.Counter(prefix + "misses")
	c.telEvictions = r.Counter(prefix + "evictions")
	c.telWrbacks = r.Counter(prefix + "writebacks")
	c.telOccupancy = r.Gauge(prefix + "occupancy_pages")
	c.telDirty = r.Gauge(prefix + "dirty_pages")
}

// telSync refreshes the occupancy gauges after any residency change.
func (c *Cache) telSync() {
	c.telOccupancy.Set(int64(c.resident))
	c.telDirty.Set(int64(c.dirtyLen))
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.resident }

// slotOf returns the arena slot caching id, or nilPage.
func (c *Cache) slotOf(id PageID) int32 {
	_, i := c.lookup(id)
	return i
}

// lookup returns id's file entry in fileTab (nilPage when no page of the
// file is cached) and the arena slot caching id (nilPage when absent).
func (c *Cache) lookup(id PageID) (f, i int32) {
	if id.Index < 0 {
		panic(fmt.Sprintf("cache: negative page index %d in inode %d", id.Index, id.Ino))
	}
	f, ok := c.files[id.Ino]
	if !ok {
		return nilPage, nilPage
	}
	if s := c.fileTab[f].slots; id.Index < int64(len(s)) {
		return f, s[id.Index]
	}
	return f, nilPage
}

// pageID returns the page slot i caches.
func (c *Cache) pageID(i int32) PageID {
	return PageID{Ino: c.fileTab[c.arena[i].file].ino, Index: c.arena[i].page}
}

// index records that slot i caches id. f is id's file entry as lookup
// returned it; nilPage makes a new entry.
func (c *Cache) index(f int32, id PageID, i int32) {
	if f == nilPage {
		if n := len(c.freeFiles); n > 0 {
			f = c.freeFiles[n-1]
			c.freeFiles = c.freeFiles[:n-1]
		} else {
			c.fileTab = append(c.fileTab, fileIndex{})
			f = int32(len(c.fileTab) - 1)
		}
		c.fileTab[f].ino = id.Ino
		c.files[id.Ino] = f
	}
	fi := &c.fileTab[f]
	for int64(len(fi.slots)) <= id.Index {
		fi.slots = append(fi.slots, nilPage)
	}
	fi.slots[id.Index] = i
	fi.n++
	c.arena[i].file = f
	c.resident++
}

// unindex removes slot i's page from the page index. It panics if the
// index does not map that page to i.
func (c *Cache) unindex(i int32) {
	pg := &c.arena[i]
	fi := &c.fileTab[pg.file]
	if fi.n == 0 || pg.page >= int64(len(fi.slots)) || fi.slots[pg.page] != i {
		panic(fmt.Sprintf("cache: slot %d (page %v) is not in the index", i, c.pageID(i)))
	}
	fi.slots[pg.page] = nilPage
	fi.n--
	c.resident--
	if fi.n == 0 {
		delete(c.files, fi.ino)
		c.freeFiles = append(c.freeFiles, pg.file)
	}
}

// diskOf returns d's index in the disk table, or -1.
func (c *Cache) diskOf(d *disk.Disk) int {
	for k := range c.disks {
		if c.disks[k].d == d {
			return k
		}
	}
	return -1
}

// addDisk returns d's index in the disk table, adding it if new.
func (c *Cache) addDisk(d *disk.Disk) uint16 {
	k := c.diskOf(d)
	if k < 0 {
		k = len(c.disks)
		if k > math.MaxUint16 {
			panic("cache: pages on more than 65536 disks")
		}
		c.disks = append(c.disks, dirtyQueue{d: d, head: nilPage, tail: nilPage})
	}
	return uint16(k)
}

// addr returns the backing address of slot i's page.
func (c *Cache) addr(i int32) BlockAddr {
	return BlockAddr{Disk: c.disks[c.arena[i].disk].d, Block: c.arena[i].block}
}

// maxPages is the most pages the cache can hold at once, and so the
// longest its arena can grow: an insert grows the arena only when no
// evicted slot is free.
func (c *Cache) maxPages() int {
	if c.pool == nil {
		return c.cfg.Capacity
	}
	return c.pool.Capacity()
}

// returnFrames gives n frames back to the pool; a cache without a pool
// keeps its own.
func (c *Cache) returnFrames(n int) {
	if c.pool != nil && n > 0 {
		c.pool.ReturnFrames(n)
	}
}

// allocPage returns an arena slot for a new record, reusing the free
// list before growing the arena.
func (c *Cache) allocPage() int32 {
	if i := c.freePage; i != nilPage {
		c.freePage = c.arena[i].next
		return i
	}
	if len(c.arena) == cap(c.arena) {
		// Double the arena: append grows a large slice by a quarter at a
		// time, copying the whole arena at each step.
		c.arena = slices.Grow(c.arena, max(1, c.arenaGrowth(len(c.arena))))
	}
	c.arena = append(c.arena, cpage{})
	return int32(len(c.arena) - 1)
}

// arenaGrowth is how many records doubling an arena of n records adds:
// n, up to all the pages the cache can hold.
func (c *Cache) arenaGrowth(n int) int {
	return max(0, min(n, c.maxPages()-n))
}

// releasePage pushes slot i onto the free list. The record must already
// be off the replacement order, its dirty FIFO and the page index.
func (c *Cache) releasePage(i int32) {
	c.arena[i] = cpage{next: c.freePage, dirtyPrev: nilPage, dirtyNext: nilPage}
	c.freePage = i
}

// Lookup reports whether id is cached; a hit refreshes the page's
// replacement state. Hit/miss counters are updated.
func (c *Cache) Lookup(id PageID) bool {
	if i := c.slotOf(id); i != nilPage {
		c.touched(i)
		c.stats.Hits++
		c.telHits.Inc()
		return true
	}
	c.stats.Misses++
	c.telMisses.Inc()
	return false
}

// Contains reports presence without touching replacement state or
// counters (harness ground truth, not part of the gray-box interface).
func (c *Cache) Contains(id PageID) bool { return c.slotOf(id) != nilPage }

// Insert caches page id backed by addr. Inserting an already-present page
// only updates its dirty state. The calling process pays for any frame
// reclaim or dirty throttling this triggers.
func (c *Cache) Insert(p *sim.Proc, id PageID, addr BlockAddr, dirty bool) {
	if i := c.slotOf(id); i != nilPage {
		if dirty {
			c.markDirty(i)
			c.telSync()
			c.throttle(p, addr.Disk)
		}
		return
	}
	// Obtain a frame. Eviction write-back and frame reclaim park p, and
	// while it sleeps another process may insert this same page — so the
	// index is re-checked below before the record is created (a second
	// record for the page would later be a victim the index no longer has).
	if c.pool == nil {
		for c.resident >= c.cfg.Capacity {
			if !c.EvictOne(p) {
				panic("cache: private cache cannot evict")
			}
		}
	} else {
		c.pool.GrabFrame(p)
	}
	f, i := c.lookup(id)
	if i != nilPage {
		// Lost the race: the page arrived while p slept. Fold into the
		// existing record and return the frame just obtained.
		c.returnFrames(1)
		if dirty {
			c.markDirty(i)
			c.telSync()
			c.throttle(p, addr.Disk)
		}
		return
	}
	i = c.allocPage()
	c.arena[i] = cpage{page: id.Index, block: addr.Block, disk: c.addDisk(addr.Disk),
		dirtyPrev: nilPage, dirtyNext: nilPage}
	c.index(f, id, i)
	c.inserted(i)
	if dirty {
		c.markDirty(i)
	}
	c.telSync()
	if dirty {
		c.throttle(p, addr.Disk)
	}
}

// MarkDirty flags a cached page as modified; the caller then pays any
// dirty throttling. A miss is a no-op.
func (c *Cache) MarkDirty(p *sim.Proc, id PageID) {
	if i := c.slotOf(id); i != nilPage {
		c.markDirty(i)
		c.telSync()
		c.throttle(p, c.disks[c.arena[i].disk].d)
	}
}

// markDirty appends record i to its disk's dirty FIFO if it is clean.
func (c *Cache) markDirty(i int32) {
	pg := &c.arena[i]
	if pg.dirty {
		return
	}
	c.stamp++
	pg.dirty = true
	pg.stamp = c.stamp
	q := &c.disks[pg.disk]
	pg.dirtyPrev = q.tail
	pg.dirtyNext = nilPage
	if q.tail != nilPage {
		c.arena[q.tail].dirtyNext = i
	} else {
		q.head = i
	}
	q.tail = i
	c.dirtyLen++
}

// clean unlinks record i from its disk's dirty FIFO if it is dirty.
func (c *Cache) clean(i int32) {
	pg := &c.arena[i]
	if !pg.dirty {
		return
	}
	pg.dirty = false
	q := &c.disks[pg.disk]
	if pg.dirtyPrev != nilPage {
		c.arena[pg.dirtyPrev].dirtyNext = pg.dirtyNext
	} else {
		q.head = pg.dirtyNext
	}
	if pg.dirtyNext != nilPage {
		c.arena[pg.dirtyNext].dirtyPrev = pg.dirtyPrev
	} else {
		q.tail = pg.dirtyPrev
	}
	pg.dirtyPrev, pg.dirtyNext = nilPage, nilPage
	c.dirtyLen--
}

// oldestDirty returns the slot of the page dirtied earliest — the FIFO
// head with the smallest stamp — or nilPage when every page is clean.
func (c *Cache) oldestDirty() int32 {
	oldest := nilPage
	for k := range c.disks {
		if h := c.disks[k].head; h != nilPage && (oldest == nilPage || c.arena[h].stamp < c.arena[oldest].stamp) {
			oldest = h
		}
	}
	return oldest
}

// throttle synchronously cleans oldest dirty pages while over MaxDirty.
// The dirtying process preferentially cleans pages destined for the
// SAME disk it is writing to (hint), so that concurrent writers on
// separate disks drain their own streams in parallel instead of
// ping-ponging each other's devices.
func (c *Cache) throttle(p *sim.Proc, hint *disk.Disk) {
	for c.dirtyLen > c.cfg.MaxDirty {
		victim := nilPage
		if hint != nil {
			if k := c.diskOf(hint); k >= 0 {
				victim = c.disks[k].head
			}
		}
		if victim == nilPage {
			victim = c.oldestDirty()
		}
		c.stats.ThrottleFlushes++
		c.writeBack(p, victim)
	}
}

// writeBack cleans record i and writes its page to disk, charged to p.
// The address is copied out before the write parks p: while p sleeps in
// Access, other processes may evict this page and reuse its slot.
func (c *Cache) writeBack(p *sim.Proc, i int32) {
	addr := c.addr(i)
	c.clean(i)
	c.stats.Writebacks++
	c.telWrbacks.Inc()
	c.telSync()
	addr.Disk.Access(p, addr.Block, 1, true)
}

// EvictOne implements mem.Shrinker: pick a victim, drop it from the index
// immediately, write it back if dirty, and return the frame.
func (c *Cache) EvictOne(p *sim.Proc) bool {
	i, ok := c.victim()
	if !ok {
		return false
	}
	wasDirty := c.arena[i].dirty
	addr := c.addr(i)
	c.forget(i)
	c.stats.Evictions++
	c.telEvictions.Inc()
	c.telSync()
	// The frame is logically free once a write-back is issued; return it
	// before sleeping so the waiting allocator can proceed.
	c.returnFrames(1)
	if wasDirty {
		c.stats.Writebacks++
		c.telWrbacks.Inc()
		addr.Disk.Access(p, addr.Block, 1, true)
	}
	return true
}

// forget removes record i from the dirty FIFO and the page index and
// releases its arena slot. The record must already be off the
// replacement order (victim or unlink).
func (c *Cache) forget(i int32) {
	c.clean(i)
	c.unindex(i)
	c.releasePage(i)
}

// Name implements mem.Shrinker.
func (c *Cache) Name() string { return "filecache" }

// Held implements mem.Shrinker.
func (c *Cache) Held() int {
	if c.pool == nil {
		return 0 // holds no pool frames
	}
	return c.resident
}

// Floor implements mem.Shrinker.
func (c *Cache) Floor() int { return c.cfg.FloorPages }

// InvalidateFile drops every cached page of ino without write-back (the
// file is being deleted or truncated).
func (c *Cache) InvalidateFile(ino int64) {
	f, ok := c.files[ino]
	if !ok {
		return
	}
	n := c.dropFile(f)
	c.telSync()
	c.returnFrames(n)
}

// dropFile discards every cached page of file entry f in page order,
// without write-back, and returns how many there were.
func (c *Cache) dropFile(f int32) int {
	n := c.fileTab[f].n
	for _, i := range c.fileTab[f].slots {
		if i != nilPage {
			c.unlink(i)
			c.forget(i)
		}
	}
	return n
}

// Sync writes back every dirty page, oldest first, charged to p.
func (c *Cache) Sync(p *sim.Proc) {
	for c.dirtyLen > 0 {
		c.writeBack(p, c.oldestDirty())
	}
}

// Drop instantly discards every page (harness control used to model the
// experimenter's "flush the file cache" step; dirty data is lost).
func (c *Cache) Drop() {
	n := 0
	for f := range c.fileTab {
		if c.fileTab[f].n > 0 {
			n += c.dropFile(int32(f))
		}
	}
	c.telSync()
	c.returnFrames(n)
}

// PresenceBitmap reports, for each of the first npages pages of ino,
// whether it is cached. This mirrors the presence-bit interface the
// authors added to their Linux kernel for ground truth (footnote 2); it
// is used only by experiment harnesses, never by ICLs.
func (c *Cache) PresenceBitmap(ino int64, npages int64) []bool {
	bm := make([]bool, npages)
	if f, ok := c.files[ino]; ok {
		for idx, i := range c.fileTab[f].slots[:min(npages, int64(len(c.fileTab[f].slots)))] {
			bm[idx] = i != nilPage
		}
	}
	return bm
}

// ResidentPages returns how many pages of ino are cached.
func (c *Cache) ResidentPages(ino int64) int {
	if f, ok := c.files[ino]; ok {
		return c.fileTab[f].n
	}
	return 0
}

// ContainsPage reports whether one page of ino is cached, without
// touching replacement state or counters. It is the allocation-free
// point query behind PresenceBitmap, for oracle checks on per-block hot
// paths (the stash admission audit) where a bitmap per call would
// allocate O(pages).
func (c *Cache) ContainsPage(ino, idx int64) bool {
	return c.slotOf(PageID{Ino: ino, Index: idx}) != nilPage
}

// clone deep-copies s, with room for that many more arena records
// before the arena must grow. Every file's slots go into one fresh
// backing array, each capped at its length so a later grow reallocates
// instead of running into its neighbour; entries on the free list get
// none.
func (s *state) clone(room int) state {
	cp := *s
	cp.arena = make([]cpage, len(s.arena), len(s.arena)+room)
	copy(cp.arena, s.arena)
	cp.files = maps.Clone(s.files)
	cp.freeFiles = slices.Clone(s.freeFiles)
	cp.disks = slices.Clone(s.disks)
	cp.fileTab = make([]fileIndex, len(s.fileTab))
	total := 0
	for _, fi := range s.fileTab {
		if fi.n > 0 {
			total += len(fi.slots)
		}
	}
	buf := make([]int32, total)
	for f, fi := range s.fileTab {
		if fi.n == 0 {
			continue
		}
		k := copy(buf, fi.slots)
		cp.fileTab[f] = fileIndex{ino: fi.ino, slots: buf[:k:k], n: fi.n}
		buf = buf[k:]
	}
	return cp
}
