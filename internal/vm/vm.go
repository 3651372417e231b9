// Package vm models anonymous process memory: lazy zero-fill allocation,
// a global clock (second-chance) page daemon over all resident anonymous
// pages, and swap-out/swap-in to a swap disk.
//
// The timing behavior MAC (Section 4.3) depends on is produced
// mechanically: touching a resident page costs a fraction of a
// microsecond; the first write to a new page costs a page fault plus
// zero-fill; and once physical memory is overcommitted, a write costs a
// reclaim that may write a victim page to the swap disk (milliseconds) —
// the "slow data points" MAC watches for.
//
// The page daemon's clock is an intrusive index-based ring
// (internal/ring): touching a resident page relinks its existing ring
// slot instead of churning heap nodes, so the MAC probe loop's hottest
// path allocates nothing.
package vm

import (
	"fmt"
	"math"

	"graybox/internal/disk"
	"graybox/internal/mem"
	"graybox/internal/ring"
	"graybox/internal/sim"
	"graybox/internal/telemetry"
)

// Config carries the CPU-side costs of memory operations.
type Config struct {
	TouchResident sim.Time // write to a resident page
	FaultOverhead sim.Time // trap + kernel entry on any page fault
	ZeroFill      sim.Time // zeroing a fresh page
}

// DefaultConfig matches a circa-2001 machine.
func DefaultConfig() Config {
	return Config{
		TouchResident: 200 * sim.Nanosecond,
		FaultOverhead: 2 * sim.Microsecond,
		ZeroFill:      8 * sim.Microsecond, // 4 KB at ~500 MB/s
	}
}

// RegionID names an allocation within an address space.
type RegionID int64

// pageState is one page's 8 bytes. Its zero value is a page never
// touched: not resident and holding no swap slot.
type pageState struct {
	// swap is the page's swap slot plus one; 0 when it holds none.
	swap int32
	// clockH is the page's slot in the daemon's clock ring. A page is
	// resident exactly when it holds one; ring.None otherwise.
	clockH ring.Handle
}

func (pg *pageState) resident() bool { return pg.clockH != ring.None }

type clockKey struct {
	as     *AddrSpace
	region RegionID
	idx    int64
}

// AddrSpace is one process's anonymous memory.
type AddrSpace struct {
	vm *VM
	// regions holds each region's pages at regions[id-1]. Ids are handed
	// out in order and never reused, so a freed region's entry stays nil
	// and a stale id fails loudly.
	regions  [][]pageState
	resident int
}

// Stats counts VM activity.
type Stats struct {
	ZeroFills, SwapIns, SwapOuts int64
	// DaemonScans counts page-daemon clock sweeps (EvictOne calls that
	// found a candidate).
	DaemonScans int64
}

// VM is the system-wide anonymous memory manager. It implements
// mem.Shrinker so the frame pool can trigger page-outs.
type VM struct {
	pool *mem.Pool
	swap *disk.Disk
	cfg  Config

	clock    ring.List[clockKey] // the page daemon's circle
	hand     ring.Handle
	swapFree []int64 // free swap slots (LIFO)
	swapNext int64
	swapCap  int64
	stats    Stats

	// Telemetry handles; nil (no-op) until Instrument is called.
	telZeroFills, telSwapIns  *telemetry.Counter
	telSwapOuts, telScans     *telemetry.Counter
	telResident, telSwapSlots *telemetry.Gauge
}

// New creates the VM manager. swapBlocks bounds swap usage on the swap
// disk (0 means the whole disk).
func New(pool *mem.Pool, swap *disk.Disk, swapBlocks int64, cfg Config) *VM {
	if swapBlocks <= 0 {
		swapBlocks = swap.Params().Blocks()
	}
	if swapBlocks > math.MaxInt32 {
		panic(fmt.Sprintf("vm: %d swap slots, more than a page's int32 slot can name", swapBlocks))
	}
	return &VM{pool: pool, swap: swap, cfg: cfg, swapCap: swapBlocks}
}

// Stats returns a copy of the counters.
func (v *VM) Stats() Stats { return v.stats }

// Instrument registers the VM's metrics in r: swap traffic and
// zero-fill counters, the page daemon's scan count, and gauges for
// resident anonymous pages and swap slots in use. Page-daemon work also
// appears as a span on the track of the process that triggered reclaim.
func (v *VM) Instrument(r *telemetry.Registry) {
	v.telZeroFills = r.Counter("vm.zero_fills")
	v.telSwapIns = r.Counter("vm.swap_ins")
	v.telSwapOuts = r.Counter("vm.swap_outs")
	v.telScans = r.Counter("vm.daemon_scans")
	v.telResident = r.Gauge("vm.resident_pages")
	v.telSwapSlots = r.Gauge("vm.swap_slots_used")
}

// telSyncGauges refreshes the residency gauges after a state change.
func (v *VM) telSyncGauges() {
	v.telResident.Set(int64(v.clock.Len()))
	v.telSwapSlots.Set(v.swapNext - int64(len(v.swapFree)))
}

// NewSpace creates an address space for one process.
func (v *VM) NewSpace() *AddrSpace { return &AddrSpace{vm: v} }

// Name implements mem.Shrinker.
func (v *VM) Name() string { return "anon" }

// Held implements mem.Shrinker.
func (v *VM) Held() int { return v.clock.Len() }

// Floor implements mem.Shrinker: anonymous memory can always be swapped.
func (v *VM) Floor() int { return 0 }

// EvictOne implements mem.Shrinker: run the clock hand to find an
// unreferenced resident page, swap it out, and return its frame. The
// reference bit lives implicitly in the ring: Touch moves a page's slot
// behind the hand (second chance), so a page the hand reaches has not
// been touched since the last sweep.
func (v *VM) EvictOne(p *sim.Proc) bool {
	if v.clock.Len() == 0 {
		return false
	}
	v.stats.DaemonScans++
	v.telScans.Inc()
	p.Track().Begin("vm", "pagedaemon scan")
	defer p.Track().End()
	h := v.hand
	if h == ring.None {
		h = v.clock.Front()
	}
	v.hand = v.clock.Next(h)
	key := v.clock.Remove(h)

	pg := &key.as.regions[key.region-1][key.idx]
	// Mark non-resident before the I/O so a concurrent reclaim cannot
	// pick this page again.
	pg.clockH = ring.None
	key.as.resident--
	slot := v.allocSwapSlot()
	pg.swap = int32(slot) + 1
	v.stats.SwapOuts++
	v.telSwapOuts.Inc()
	v.telSyncGauges()
	v.pool.ReturnFrames(1)
	v.swap.Access(p, slot, 1, true)
	return true
}

func (v *VM) allocSwapSlot() int64 {
	if n := len(v.swapFree); n > 0 {
		s := v.swapFree[n-1]
		v.swapFree = v.swapFree[:n-1]
		return s
	}
	if v.swapNext >= v.swapCap {
		panic("vm: out of swap space")
	}
	s := v.swapNext
	v.swapNext++
	return s
}

func (v *VM) freeSwapSlot(s int64) { v.swapFree = append(v.swapFree, s) }

// touchClock records a reference: the page's ring slot moves to the back
// of the clock (just behind the hand's sweep), granting a second chance.
// The handle survives the move, so the caller's pageState needs no
// update and the touch allocates nothing.
func (v *VM) touchClock(h ring.Handle) ring.Handle {
	if v.hand == h {
		v.hand = v.clock.Next(h)
	}
	v.clock.MoveToBack(h)
	return h
}

// --- AddrSpace operations ---

// Alloc reserves npages of address space (no frames yet — pages fault in
// lazily, like malloc/sbrk).
func (as *AddrSpace) Alloc(npages int64) RegionID {
	if npages <= 0 {
		panic("vm: Alloc of non-positive size")
	}
	as.regions = append(as.regions, make([]pageState, npages))
	return RegionID(len(as.regions))
}

// region returns the pages of region id. It panics, naming op, when id
// was never allocated in this space or has been freed.
func (as *AddrSpace) region(op string, id RegionID) []pageState {
	if id < 1 || id > RegionID(len(as.regions)) || as.regions[id-1] == nil {
		panic(fmt.Sprintf("vm: %s of unknown region %d", op, id))
	}
	return as.regions[id-1]
}

// Free releases a region: resident frames return to the pool, swap slots
// are freed. No I/O is needed.
func (as *AddrSpace) Free(id RegionID) {
	pages := as.region("Free", id)
	freed := 0
	for i := range pages {
		pg := &pages[i]
		if pg.resident() {
			if as.vm.hand == pg.clockH {
				as.vm.hand = as.vm.clock.Next(pg.clockH)
			}
			as.vm.clock.Remove(pg.clockH)
			freed++
			as.resident--
		}
		if pg.swap != 0 {
			as.vm.freeSwapSlot(int64(pg.swap - 1))
		}
	}
	if freed > 0 {
		as.vm.pool.ReturnFrames(freed)
	}
	as.regions[id-1] = nil
	as.vm.telSyncGauges()
}

// Release frees every region in the space in id order (process exit).
func (as *AddrSpace) Release() {
	for i, pages := range as.regions {
		if pages != nil {
			as.Free(RegionID(i + 1))
		}
	}
}

// Pages returns the size of a region in pages.
func (as *AddrSpace) Pages(id RegionID) int64 { return int64(len(as.region("Pages", id))) }

// Resident returns the number of resident pages in the space (harness
// ground truth).
func (as *AddrSpace) Resident() int { return as.resident }

// ResidentIn returns resident pages of one region (harness ground truth).
func (as *AddrSpace) ResidentIn(id RegionID) int {
	n := 0
	for _, pg := range as.region("ResidentIn", id) {
		if pg.resident() {
			n++
		}
	}
	return n
}

// Touch accesses one page of a region. A write to a non-resident page
// faults it in (zero-fill or swap-in); a read of a never-written page is
// satisfied by the shared zero page without allocating a frame (which is
// why MAC's probes must write — Section 4.3.1).
func (as *AddrSpace) Touch(p *sim.Proc, id RegionID, idx int64, write bool) {
	v := as.vm
	pages := as.region("Touch", id)
	if idx < 0 || idx >= int64(len(pages)) {
		panic(fmt.Sprintf("vm: Touch page %d outside region of %d pages", idx, len(pages)))
	}
	pg := &pages[idx]
	switch {
	case pg.resident():
		pg.clockH = v.touchClock(pg.clockH)
		p.Sleep(v.cfg.TouchResident)
	case pg.swap == 0 && !write:
		// Zero-page read: no frame needed.
		p.Sleep(v.cfg.TouchResident)
	case pg.swap == 0:
		// First write: demand-zero fault. GrabFrame may reclaim (cache
		// drop, dirty write-back, or a swap-out) — all charged to p.
		v.pool.GrabFrame(p)
		p.Sleep(v.cfg.FaultOverhead + v.cfg.ZeroFill + v.cfg.TouchResident)
		as.resident++
		pg.clockH = v.clock.PushBack(clockKey{as: as, region: id, idx: idx})
		v.stats.ZeroFills++
		v.telZeroFills.Inc()
		v.telSyncGauges()
	default:
		// Swap-in.
		v.pool.GrabFrame(p)
		slot := int64(pg.swap - 1)
		v.stats.SwapIns++
		v.telSwapIns.Inc()
		v.swap.Access(p, slot, 1, false)
		p.Sleep(v.cfg.FaultOverhead + v.cfg.TouchResident)
		pg.swap = 0
		v.freeSwapSlot(slot)
		as.resident++
		pg.clockH = v.clock.PushBack(clockKey{as: as, region: id, idx: idx})
		v.telSyncGauges()
	}
}
