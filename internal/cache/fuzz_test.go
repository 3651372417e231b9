package cache

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"graybox/internal/disk"
	"graybox/internal/mem"
	"graybox/internal/sim"
)

// FuzzCacheOps checks sequences of cache operations against refCache, a
// reference that keeps resident pages in a Go map, the dirty order in a
// slice and the replacement order in a slice searched linearly. The two
// run on twin machines (engine, 1–3 disks, frame pool) built from the
// same configuration, so a write-back parks the same process for the
// same virtual time on both sides, and interleavings — two processes
// inserting one page while the first parks in reclaim — replay
// identically. After every operation the resident set, per-file counts,
// presence bitmaps, dirty order, replacement order (with Clock's
// reference bits), counters, Len, the pool's frame count and the clock
// must agree.
//
// The snapshot op restores the cache into a fresh machine and carries on
// with either copy. Each snapshot is restored once more at the end and
// checked against the state it captured, which catches a Restore that
// shares memory with its snapshot or with the cache it was taken from.
func FuzzCacheOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeCacheScenario(data)
		under := newMachine(sc)
		ref := newRefMachine(sc)
		type taken struct {
			snap *Snapshot
			src  *machine // whose disks the snapshot's pages name
			want cacheView
		}
		var snaps []taken
		for n, op := range sc.ops {
			if op.kind == fopSnapshot {
				s := under.c.Snapshot()
				snaps = append(snaps, taken{s, under, ref.view()})
				fork := under.fork(s)
				if msg := fork.view().diff(ref.view()); msg != "" {
					t.Fatalf("op %d (%v): restored copy: %s", n, op, msg)
				}
				if op.a&1 == 1 {
					under = fork
				}
				continue
			}
			if err := under.apply(op); err != nil {
				t.Fatalf("op %d (%v): cache: %v", n, op, err)
			}
			if err := ref.apply(op); err != nil {
				t.Fatalf("op %d (%v): reference: %v", n, op, err)
			}
			if msg := under.view().diff(ref.view()); msg != "" {
				t.Fatalf("op %d (%v): %s", n, op, msg)
			}
		}
		for k, s := range snaps {
			v := s.src.fork(s.snap).view()
			v.Now = s.want.Now // the copy runs on the current clock
			if msg := v.diff(s.want); msg != "" {
				t.Fatalf("snapshot %d restored again: %s", k, msg)
			}
		}
	})
}

// Fuzz operations.
const (
	fopInsert   = iota // insert page a on disk b%disks, clean
	fopInsertD         // the same, dirty
	fopLookup          // Lookup page a
	fopMark            // MarkDirty page a
	fopInval           // InvalidateFile(inode of a)
	fopDrop            // Drop
	fopSync            // Sync
	fopEvict           // EvictOne
	fopSnapshot        // Snapshot, Restore into a fresh machine; a&1: carry on with the copy
	fopRace            // two processes insert page a; b bit 0/1: first/second dirty
	numFops
)

var fopNames = [numFops]string{"insert", "insert-dirty", "lookup", "mark-dirty", "invalidate", "drop", "sync", "evict", "snapshot", "race"}

type cacheOp struct {
	kind int
	a, b byte
}

func (o cacheOp) String() string { return fmt.Sprintf("%s %d %d", fopNames[o.kind], o.a, o.b) }

// The page universe: four files, one with the negative inode number the
// file system gives inode-table blocks, and fuzzPages pages each.
var fuzzInos = [4]int64{1, 2, 7, -3}

const fuzzPages = 24

func fuzzPage(a byte) PageID {
	return PageID{Ino: fuzzInos[a&3], Index: int64(a>>2) % fuzzPages}
}

type cacheScenario struct {
	policy     int // a Policy: 0 clock, 1 lru, 2 holdfirst
	disks      int
	cfg        Config
	poolFrames int
	ops        []cacheOp
}

// decodeCacheScenario reads data as
//
//	b0  policy b0%3, a private cache when (b0/3)&1, disks (b0/6)%3+1
//	b1  a private cache's capacity b1%10+2
//	b2  MaxDirty b2%8+1; bit 7 set leaves writers unthrottled
//	b3  a pool-backed cache's pool frames b3%12+3 and FloorPages (b3>>4)%4
//	then three bytes per op: kind (%numFops), a, b
//
// Missing bytes read as zero.
func decodeCacheScenario(data []byte) cacheScenario {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b0, b1, b2, b3 := next(), next(), next(), next()
	sc := cacheScenario{policy: int(b0 % 3), disks: int(b0/6)%3 + 1, poolFrames: int(b3%12) + 3}
	if (b0/3)&1 == 1 {
		sc.cfg.Capacity = int(b1%10) + 2
	} else {
		sc.cfg.FloorPages = int(b3>>4) % 4
	}
	if b2&0x80 == 0 {
		sc.cfg.MaxDirty = int(b2%8) + 1
	}
	for len(data) > 0 {
		sc.ops = append(sc.ops, cacheOp{kind: int(next() % numFops), a: next(), b: next()})
	}
	return sc
}

// platform is one machine of a twin pair: engine, disks and pool, built
// identically on both sides.
type platform struct {
	e     *sim.Engine
	disks []*disk.Disk
	pool  *mem.Pool // nil for a private cache
}

func newPlatform(sc cacheScenario) platform {
	e := sim.NewEngine(1)
	pl := platform{e: e}
	for i := 0; i < sc.disks; i++ {
		pl.disks = append(pl.disks, disk.New(e, disk.DefaultParams()))
	}
	if sc.cfg.Capacity == 0 { // a cache with no frames of its own
		pl.pool = mem.NewPool(sc.poolFrames)
	}
	return pl
}

func (pl platform) addr(id PageID, b byte) BlockAddr {
	return BlockAddr{Disk: pl.disks[int(b)%len(pl.disks)], Block: (id.Ino+8)*64 + id.Index}
}

// run executes fn in a fresh process, then one more process per extra
// function, and drives the engine until all have finished. A panic in
// any of them is returned as an error.
func (pl platform) run(fns ...func(p *sim.Proc)) error {
	procs := make([]*sim.Proc, len(fns))
	for i, fn := range fns {
		procs[i] = pl.e.Go(fmt.Sprintf("op%d", i), fn)
	}
	pl.e.Run()
	for _, pr := range procs {
		if err := pr.Err(); err != nil {
			return err
		}
	}
	return nil
}

// machine is the side under test.
type machine struct {
	sc cacheScenario
	platform
	c *Cache
}

func newMachine(sc cacheScenario) *machine {
	m := &machine{sc: sc, platform: newPlatform(sc)}
	m.c = New(sc.cfg, Policy(sc.policy), m.pool)
	if m.pool != nil {
		m.pool.AddShrinker(m.c)
	}
	return m
}

// fork restores s into a fresh machine whose engine and disks continue
// from this one's clock and head positions, as simos.Fork does.
func (m *machine) fork(s *Snapshot) *machine {
	fm := newMachine(m.sc)
	fm.e.Restore(m.e.Checkpoint())
	for i, d := range m.disks {
		fm.disks[i].Restore(d.State())
	}
	fm.c.Restore(s, func(d *disk.Disk) *disk.Disk {
		for i, old := range m.disks {
			if old == d {
				return fm.disks[i]
			}
		}
		panic("fork: unknown disk")
	})
	return fm
}

func (m *machine) apply(op cacheOp) error {
	id := fuzzPage(op.a)
	switch op.kind {
	case fopInsert, fopInsertD:
		return m.run(func(p *sim.Proc) { m.c.Insert(p, id, m.addr(id, op.b), op.kind == fopInsertD) })
	case fopLookup:
		m.c.Lookup(id)
	case fopMark:
		return m.run(func(p *sim.Proc) { m.c.MarkDirty(p, id) })
	case fopInval:
		m.c.InvalidateFile(id.Ino)
	case fopDrop:
		m.c.Drop()
	case fopSync:
		return m.run(m.c.Sync)
	case fopEvict:
		return m.run(func(p *sim.Proc) { m.c.EvictOne(p) })
	case fopRace:
		addr := m.addr(id, op.b)
		return m.run(
			func(p *sim.Proc) { m.c.Insert(p, id, addr, op.b&1 == 1) },
			func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				m.c.Insert(p, id, addr, op.b&2 == 2)
			})
	}
	return nil
}

// cacheView is everything FuzzCacheOps compares.
type cacheView struct {
	Len       int
	Resident  []PageID // in universe order
	PerFile   [len(fuzzInos)]int
	Dirty     []PageID // oldest first
	Order     []refEnt // replacement order from the hand (refPolicy's order)
	Stats     Stats
	PoolUsed  int
	Now       sim.Time
	PolicyLen int
	Broken    string // the cache's internal inconsistency, if any
}

// diff describes how v differs from want, or returns "" if it does not.
func (v cacheView) diff(want cacheView) string {
	if reflect.DeepEqual(v, want) {
		return ""
	}
	return fmt.Sprintf("state diverges\ncache:     %+v\nreference: %+v", v, want)
}

func (m *machine) view() cacheView {
	v := cacheView{Len: m.c.Len(), Stats: m.c.Stats(), Now: m.e.Now()}
	if m.pool != nil {
		v.PoolUsed = m.pool.Used()
	}
	for f, ino := range fuzzInos {
		v.PerFile[f] = m.c.ResidentPages(ino)
		bm := m.c.PresenceBitmap(ino, fuzzPages)
		for idx := int64(0); idx < fuzzPages; idx++ {
			id := PageID{Ino: ino, Index: idx}
			in := m.c.Contains(id)
			if bm[idx] != in || m.c.ContainsPage(ino, idx) != in {
				v.Broken = fmt.Sprintf("presence queries disagree on %v", id)
			}
			if in {
				v.Resident = append(v.Resident, id)
			}
		}
	}
	var broken string
	if v.Dirty, broken = dirtyOrder(m.c); broken == "" && len(v.Dirty) != m.c.dirtyLen {
		broken = fmt.Sprintf("dirtyLen %d, FIFOs hold %d", m.c.dirtyLen, len(v.Dirty))
	}
	if broken != "" {
		v.Broken = broken
	}
	order, broken := replacementOrder(m.c)
	if broken != "" {
		v.Broken = broken
	}
	v.PolicyLen = len(order)
	for _, i := range order {
		v.Order = append(v.Order, refEnt{id: m.c.pageID(i), ref: m.c.arena[i].ref})
	}
	return v
}

// replacementOrder lists the slots on the cache's replacement order,
// from the hand round to the record before it. It reports a record
// whose prev link does not name the one before it, and a walk that does
// not come back to the hand.
func replacementOrder(c *Cache) ([]int32, string) {
	if c.hand == nilPage {
		return nil, ""
	}
	var slots []int32
	for i := c.hand; ; {
		slots = append(slots, i)
		next := c.arena[i].next
		if c.arena[next].prev != i {
			return nil, fmt.Sprintf("order: slot %d's next %d links back to %d", i, next, c.arena[next].prev)
		}
		if next == c.hand {
			return slots, ""
		}
		if len(slots) > len(c.arena) {
			return nil, "order: the walk from the hand does not come back to it"
		}
		i = next
	}
}

// dirtyOrder lists the cache's dirty pages, oldest first: its per-disk
// FIFOs merged by dirty stamp. It reports a FIFO that is out of stamp
// order, mislinked, or holds a clean page or one of another disk.
func dirtyOrder(c *Cache) ([]PageID, string) {
	var slots []int32
	for k, q := range c.disks {
		prev := nilPage
		for i := q.head; i != nilPage; prev, i = i, c.arena[i].dirtyNext {
			pg := c.arena[i]
			switch {
			case !pg.dirty || int(pg.disk) != k || pg.dirtyPrev != prev:
				return nil, fmt.Sprintf("disk %d FIFO: bad record at slot %d: %+v", k, i, pg)
			case prev != nilPage && c.arena[prev].stamp >= pg.stamp:
				return nil, fmt.Sprintf("disk %d FIFO out of stamp order at slot %d", k, i)
			}
			slots = append(slots, i)
		}
		if q.tail != prev {
			return nil, fmt.Sprintf("disk %d FIFO tail %d, last record %d", k, q.tail, prev)
		}
	}
	slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(c.arena[a].stamp, c.arena[b].stamp) })
	var out []PageID
	for _, i := range slots {
		out = append(out, c.pageID(i))
	}
	return out, ""
}

// --- Reference ---

// refPolicy keeps one slice in replacement order: for clock the ring
// (hand indexes the next candidate), for LRU most recent first, for
// hold-first oldest insertion first.
type refPolicy struct {
	kind int
	ents []refEnt
	hand int
}

// order returns the entries from the hand on, as the cache's order
// reads from its hand.
func (r *refPolicy) order() []refEnt {
	if len(r.ents) == 0 {
		return nil
	}
	return append(slices.Clone(r.ents[r.hand:]), r.ents[:r.hand]...)
}

type refEnt struct {
	id  PageID
	ref bool
}

func (r *refPolicy) find(id PageID) int {
	return slices.IndexFunc(r.ents, func(e refEnt) bool { return e.id == id })
}

func (r *refPolicy) inserted(id PageID) {
	switch r.kind {
	case 0: // just before the hand: a full sweep before it can go
		r.ents = slices.Insert(r.ents, r.hand, refEnt{id: id, ref: true})
		if len(r.ents) > 1 {
			r.hand++
		}
	case 1:
		r.ents = slices.Insert(r.ents, 0, refEnt{id: id})
	case 2:
		r.ents = append(r.ents, refEnt{id: id})
	}
}

func (r *refPolicy) touched(id PageID) {
	k := r.find(id)
	switch r.kind {
	case 0:
		r.ents[k].ref = true
	case 1:
		e := r.ents[k]
		r.ents = slices.Insert(slices.Delete(r.ents, k, k+1), 0, e)
	}
}

func (r *refPolicy) victim() (PageID, bool) {
	if len(r.ents) == 0 {
		return PageID{}, false
	}
	k := len(r.ents) - 1
	if r.kind == 0 {
		for r.ents[r.hand].ref {
			r.ents[r.hand].ref = false
			r.hand = (r.hand + 1) % len(r.ents)
		}
		k = r.hand
	}
	id := r.ents[k].id
	r.removeAt(k)
	return id, true
}

func (r *refPolicy) removed(id PageID) { r.removeAt(r.find(id)) }

// removeAt deletes entry k; a clock hand on it moves to the next entry.
func (r *refPolicy) removeAt(k int) {
	r.ents = slices.Delete(r.ents, k, k+1)
	if k < r.hand {
		r.hand--
	}
	if r.hand >= len(r.ents) {
		r.hand = 0
	}
}

// refCache is the reference cache: the same algorithm as Cache — frame
// reclaim, the re-check after parking, dirty throttling on the writer's
// disk first, write-back on eviction — over plain maps and slices. It is
// the shrinker of its own machine's pool.
type refCache struct {
	sc cacheScenario
	platform
	pol      refPolicy
	maxDirty int
	pages    map[PageID]BlockAddr
	dirty    []PageID // oldest first
	stats    Stats
}

func newRefMachine(sc cacheScenario) *refCache {
	r := &refCache{sc: sc, platform: newPlatform(sc), pol: refPolicy{kind: sc.policy},
		maxDirty: sc.cfg.MaxDirty, pages: map[PageID]BlockAddr{}}
	if r.maxDirty <= 0 {
		r.maxDirty = 1 << 30
	}
	if r.pool != nil {
		r.pool.AddShrinker(r)
	}
	return r
}

func (r *refCache) view() cacheView {
	v := cacheView{Len: len(r.pages), Stats: r.stats, Now: r.e.Now(), PolicyLen: len(r.pol.ents),
		Dirty: append([]PageID(nil), r.dirty...), Order: r.pol.order()}
	if r.pool != nil {
		v.PoolUsed = r.pool.Used()
	}
	for f, ino := range fuzzInos {
		for idx := int64(0); idx < fuzzPages; idx++ {
			id := PageID{Ino: ino, Index: idx}
			if _, ok := r.pages[id]; ok {
				v.Resident = append(v.Resident, id)
				v.PerFile[f]++
			}
		}
	}
	return v
}

func (r *refCache) apply(op cacheOp) error {
	id := fuzzPage(op.a)
	switch op.kind {
	case fopInsert, fopInsertD:
		return r.run(func(p *sim.Proc) { r.insert(p, id, r.addr(id, op.b), op.kind == fopInsertD) })
	case fopLookup:
		if _, ok := r.pages[id]; ok {
			r.pol.touched(id)
			r.stats.Hits++
		} else {
			r.stats.Misses++
		}
	case fopMark:
		return r.run(func(p *sim.Proc) {
			if addr, ok := r.pages[id]; ok {
				r.setDirty(id)
				r.throttle(p, addr.Disk)
			}
		})
	case fopInval:
		n := 0
		for pg := range r.pages {
			if pg.Ino == id.Ino {
				r.remove(pg)
				n++
			}
		}
		r.returnFrames(n)
	case fopDrop:
		n := len(r.pages)
		for pg := range r.pages {
			r.remove(pg)
		}
		r.returnFrames(n)
	case fopSync:
		return r.run(func(p *sim.Proc) {
			for len(r.dirty) > 0 {
				r.writeBack(p, 0, false)
			}
		})
	case fopEvict:
		return r.run(func(p *sim.Proc) { r.EvictOne(p) })
	case fopRace:
		addr := r.addr(id, op.b)
		return r.run(
			func(p *sim.Proc) { r.insert(p, id, addr, op.b&1 == 1) },
			func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				r.insert(p, id, addr, op.b&2 == 2)
			})
	}
	return nil
}

func (r *refCache) insert(p *sim.Proc, id PageID, addr BlockAddr, dirty bool) {
	if _, ok := r.pages[id]; !ok {
		if r.pool == nil {
			for len(r.pages) >= r.sc.cfg.Capacity {
				if !r.EvictOne(p) {
					panic("reference: cannot evict")
				}
			}
		} else {
			r.pool.GrabFrame(p)
		}
		if _, ok := r.pages[id]; ok {
			r.returnFrames(1) // another process cached it while p slept
		} else {
			r.pages[id] = addr
			r.pol.inserted(id)
		}
	}
	if dirty {
		r.setDirty(id)
		r.throttle(p, addr.Disk)
	}
}

func (r *refCache) setDirty(id PageID) {
	if !slices.Contains(r.dirty, id) {
		r.dirty = append(r.dirty, id)
	}
}

// clean drops id from the dirty order and reports whether it was there.
func (r *refCache) clean(id PageID) bool {
	k := slices.Index(r.dirty, id)
	if k >= 0 {
		r.dirty = slices.Delete(r.dirty, k, k+1)
	}
	return k >= 0
}

// remove drops id without write-back, as Drop and InvalidateFile do.
func (r *refCache) remove(id PageID) {
	r.pol.removed(id)
	r.clean(id)
	delete(r.pages, id)
}

func (r *refCache) returnFrames(n int) {
	if r.pool != nil {
		r.pool.ReturnFrames(n)
	}
}

// throttle writes back dirty pages while over the limit, the oldest on
// the writer's disk first, else the oldest overall.
func (r *refCache) throttle(p *sim.Proc, hint *disk.Disk) {
	for len(r.dirty) > r.maxDirty {
		k := slices.IndexFunc(r.dirty, func(id PageID) bool { return r.pages[id].Disk == hint })
		r.writeBack(p, max(k, 0), true)
	}
}

// writeBack cleans dirty page k and writes it to disk.
func (r *refCache) writeBack(p *sim.Proc, k int, throttled bool) {
	addr := r.pages[r.dirty[k]]
	r.dirty = slices.Delete(r.dirty, k, k+1)
	if throttled {
		r.stats.ThrottleFlushes++
	}
	r.stats.Writebacks++
	addr.Disk.Access(p, addr.Block, 1, true)
}

// Name, Held, Floor and EvictOne make refCache a mem.Shrinker.
func (r *refCache) Name() string { return "reference" }
func (r *refCache) Held() int    { return len(r.pages) }
func (r *refCache) Floor() int   { return r.sc.cfg.FloorPages }

func (r *refCache) EvictOne(p *sim.Proc) bool {
	id, ok := r.pol.victim()
	if !ok {
		return false
	}
	addr := r.pages[id]
	wasDirty := r.clean(id)
	delete(r.pages, id)
	r.stats.Evictions++
	r.returnFrames(1)
	if wasDirty {
		r.stats.Writebacks++
		addr.Disk.Access(p, addr.Block, 1, true)
	}
	return true
}
