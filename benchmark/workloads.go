package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"time"

	"graybox/internal/cache"
	"graybox/internal/core/fccd"
	"graybox/internal/core/fldc"
	"graybox/internal/core/mac"
	"graybox/internal/disk"
	"graybox/internal/experiments"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/vm"
	wl "graybox/internal/workload"
)

// workload is one benchmark workload. setup builds what every trial
// starts from (timed as setup_s); each trial of the returned set forks
// that state, runs in a closed loop (the next trial starts when this one
// returns) and reports its simulated outcome.
type workload struct {
	name   string
	seeded bool // false when the trials ignore -seed (the suite)
	setup  func(sz size, seed uint64, tr *tracer) (*trialSet, error)
}

// trialSet is the fixed set of trials one pass of a run executes.
type trialSet struct {
	n   int
	run func(i int, tr *tracer) (outcome, error)
}

// outcome is one trial's simulated result: a digest of everything it
// observably produced and the deterministic work counts (virtual time
// included) of the layers it ran through.
type outcome struct {
	digest string
	counts counts
}

// counts are the deterministic per-layer work counts, read from public
// Stats() accessors. They repeat exactly for a given seed; a moved count
// means the simulator did different work.
type counts struct {
	ctxSwitches                                             int64
	virtual                                                 sim.Time
	cacheHits, cacheMisses, evictions, writebacks, throttle int64
	zeroFills, swapIns, swapOuts, daemonScans               int64
	diskReads, diskWrites, blocksRead, blocksWrote          int64
	diskBusy                                                sim.Time
	fccdProbes, macPages, macBackoffs                       int64
	webServed, webDropped, webErrors                        int64
}

func (c *counts) add(o counts) {
	c.ctxSwitches += o.ctxSwitches
	c.virtual += o.virtual
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.evictions += o.evictions
	c.writebacks += o.writebacks
	c.throttle += o.throttle
	c.zeroFills += o.zeroFills
	c.swapIns += o.swapIns
	c.swapOuts += o.swapOuts
	c.daemonScans += o.daemonScans
	c.diskReads += o.diskReads
	c.diskWrites += o.diskWrites
	c.blocksRead += o.blocksRead
	c.blocksWrote += o.blocksWrote
	c.diskBusy += o.diskBusy
	c.fccdProbes += o.fccdProbes
	c.macPages += o.macPages
	c.macBackoffs += o.macBackoffs
	c.webServed += o.webServed
	c.webDropped += o.webDropped
	c.webErrors += o.webErrors
}

// size scales every workload; "full" is what the benchmark measures and
// "smoke" keeps the smoke test fast.
type size struct {
	setupReps int
	setupFor  time.Duration

	serveMB, servePerArm int
	serveFor             sim.Time

	scanMB, scanTrials int
	scanFileKB         int64

	churnMB, churnTrials       int
	churnAgePasses, churnFiles int // aging: passes x files created per pass
	churnEpochs, churnWrites   int // trial: epochs x files written per epoch
	churnWriteKB               int64

	swarmTrials, swarmTimers   int
	swarmSleepers, swarmSleeps int
	swarmSpawns                int
	suiteIDs                   []string // nil runs every experiment
}

var sizes = map[string]size{
	"full": {
		setupReps: 11, setupFor: time.Second,
		serveMB: 64, servePerArm: 10, serveFor: sim.Second,
		scanMB: 96, scanTrials: 40, scanFileKB: 512,
		churnMB: 64, churnTrials: 40, churnAgePasses: 40, churnFiles: 150,
		churnEpochs: 3, churnWrites: 32, churnWriteKB: 256,
		swarmTrials: 20, swarmTimers: 100_000, swarmSleepers: 100, swarmSleeps: 500, swarmSpawns: 10_000,
	},
	"smoke": {
		serveMB: 16, servePerArm: 1, serveFor: 200 * sim.Millisecond,
		scanMB: 16, scanTrials: 4, scanFileKB: 64,
		churnMB: 16, churnTrials: 4, churnAgePasses: 4, churnFiles: 20,
		churnEpochs: 1, churnWrites: 8, churnWriteKB: 256,
		swarmTrials: 4, swarmTimers: 2000, swarmSleepers: 20, swarmSleeps: 50, swarmSpawns: 200,
		setupReps: 1, suiteIDs: []string{"table2", "fig5", "fig6"},
	},
}

var workloads = []*workload{
	{name: "suite", setup: setupSuite},
	{name: "serve", seeded: true, setup: setupServe},
	{name: "scan", seeded: true, setup: setupScan},
	{name: "churn", seeded: true, setup: setupChurn},
	{name: "swarm", seeded: true, setup: setupSwarm},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// trialSeed derives trial i's seed from the run seed (splitmix64).
func trialSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// machine configures a Linux 2.2 machine with the experiment harness's
// kernel-reserve and cache-floor proportions.
func machine(mb, cpus int) simos.Config {
	return simos.Config{
		Personality:  simos.Linux22,
		MemoryMB:     mb,
		KernelMB:     max(mb*66/896, 4),
		CacheFloorMB: max(mb*4/896, 1),
		CPUs:         cpus,
	}
}

// usableBytes is the frame pool's capacity: the most a unified cache holds.
func usableBytes(s *simos.System) int64 {
	return int64(s.Pool.Capacity()) * int64(s.PageSize())
}

// snapshotBase builds a platform with build and captures it; every trial
// forks the snapshot, so it is built eagerly here, never inside a trial.
func snapshotBase(tr *tracer, build func() (*simos.System, error)) (*simos.Snapshot, error) {
	s, err := build()
	if err != nil {
		return nil, err
	}
	start := tr.now()
	sn := s.Snapshot()
	tr.leaf("simos.snapshot", start, 1)
	return sn, nil
}

func fork(tr *tracer, sn *simos.Snapshot, seed uint64) *simos.System {
	start := tr.now()
	s := sn.Fork(seed)
	tr.leaf("simos.fork", start, 1)
	return s
}

// layerStats is a machine's cumulative layer counters; a trial's counts
// are the difference across it (a fork inherits its snapshot's counters).
type layerStats struct {
	cache cache.Stats
	vm    vm.Stats
	disk  disk.Stats
	busy  sim.Time
	now   sim.Time
}

func statsOf(s *simos.System) layerStats {
	ls := layerStats{cache: s.Cache.Stats(), vm: s.VM.Stats(), now: s.Engine.Now()}
	disks := []*disk.Disk{s.SwapDisk()}
	for i := 0; i < s.NumDisks(); i++ {
		disks = append(disks, s.DataDisk(i))
	}
	for _, d := range disks {
		st := d.Stats()
		ls.disk.Reads += st.Reads
		ls.disk.Writes += st.Writes
		ls.disk.BlocksRead += st.BlocksRead
		ls.disk.BlocksWrote += st.BlocksWrote
		ls.busy += d.BusyTime()
	}
	return ls
}

// layerCounts returns the work done between two readings.
func layerCounts(a, b layerStats) counts {
	return counts{
		virtual:     b.now - a.now,
		cacheHits:   b.cache.Hits - a.cache.Hits,
		cacheMisses: b.cache.Misses - a.cache.Misses,
		evictions:   b.cache.Evictions - a.cache.Evictions,
		writebacks:  b.cache.Writebacks - a.cache.Writebacks,
		throttle:    b.cache.ThrottleFlushes - a.cache.ThrottleFlushes,
		zeroFills:   b.vm.ZeroFills - a.vm.ZeroFills,
		swapIns:     b.vm.SwapIns - a.vm.SwapIns,
		swapOuts:    b.vm.SwapOuts - a.vm.SwapOuts,
		daemonScans: b.vm.DaemonScans - a.vm.DaemonScans,
		diskReads:   b.disk.Reads - a.disk.Reads,
		diskWrites:  b.disk.Writes - a.disk.Writes,
		blocksRead:  b.disk.BlocksRead - a.disk.BlocksRead,
		blocksWrote: b.disk.BlocksWrote - a.disk.BlocksWrote,
		diskBusy:    b.busy - a.busy,
	}
}

// digester hashes a trial's simulated outcome.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

// addCounts hashes every counter, so any change in the work a trial did
// changes its digest.
func (d *digester) addCounts(c counts) {
	d.add("counts %d", []int64{c.ctxSwitches, int64(c.virtual), c.cacheHits, c.cacheMisses,
		c.evictions, c.writebacks, c.throttle, c.zeroFills, c.swapIns, c.swapOuts, c.daemonScans,
		c.diskReads, c.diskWrites, c.blocksRead, c.blocksWrote, int64(c.diskBusy),
		c.fccdProbes, c.macPages, c.macBackoffs, c.webServed, c.webDropped, c.webErrors})
}

// addMAC hashes a MAC controller's counters.
func (d *digester) addMAC(st mac.Stats) {
	d.add("mac %d %d %d %d %d", st.ProbeLoops, st.PagesProbed, st.Backoffs, st.ProbeTime, st.WaitTime)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// firstErr keeps the first error a simulated process body hits, so the
// body can stop early and the trial report it.
type firstErr struct{ err error }

func (f *firstErr) ok(err error) bool {
	if err != nil && f.err == nil {
		f.err = err
	}
	return f.err == nil
}

// --- suite ---

// setupSuite runs the paper's experiments at quick scale with a trial
// pool of one, each experiment being one trial. The experiments build
// and seed their own platforms, so -seed does not apply.
func setupSuite(sz size, _ uint64, _ *tracer) (*trialSet, error) {
	experiments.SetParallelism(1)
	experiments.TakeVirtualTime() // drop anything accumulated before
	var runners []experiments.Runner
	for _, r := range experiments.All() {
		if sz.suiteIDs == nil || slices.Contains(sz.suiteIDs, r.ID) {
			runners = append(runners, r)
		}
	}
	return &trialSet{n: len(runners), run: func(i int, tr *tracer) (outcome, error) {
		r := runners[i]
		tr.begin("exp." + r.ID)
		tab := r.Run(experiments.QuickScale())
		tr.end(1)
		v := experiments.TakeVirtualTime()
		d := newDigester()
		d.add("%s", tab.String())
		return outcome{digest: d.sum(), counts: counts{virtual: v}}, nil
	}}, nil
}

// --- serve ---

// serveLoads are the offered arrival rates (requests per virtual second).
var serveLoads = []float64{300, 1000}

// serveCap is the static in-flight cap, and the ceiling of the MAC cap.
const serveCap = 64

// setupServe builds a bare machine; each trial's corpus is laid down by
// the web generator's own Prepare in the fork, as the slo experiment
// does. Trials are (load, policy, repetition), repetition fastest.
func setupServe(sz size, seed uint64, tr *tracer) (*trialSet, error) {
	base, err := snapshotBase(tr, func() (*simos.System, error) {
		return simos.New(machine(sz.serveMB, 0)), nil
	})
	if err != nil {
		return nil, err
	}
	arms := len(serveLoads) * 2
	return &trialSet{n: arms * sz.servePerArm, run: func(i int, tr *tracer) (outcome, error) {
		arm := i / sz.servePerArm
		load, graybox := serveLoads[arm/2], arm%2 == 1
		ts := trialSeed(seed, i)
		s := fork(tr, base, ts)
		s.EnableTelemetry() // request tracing is the serving scoreboard
		before := statsOf(s)

		usable := usableBytes(s)
		bufBytes := max(usable/128, 64*1024)
		web := &wl.WebServer{
			Files:       int(max(usable/8/(128*1024), 16)),
			FileKB:      128,
			RatePerSec:  load,
			MaxInFlight: serveCap,
			Theta:       0.9,
			BufKB:       bufBytes / 1024,
			SLONanos:    int64(100 * sim.Millisecond),
		}
		mix := wl.NewMix(ts, 1).Add(web, &wl.MemHog{Fraction: 0.35, Dwell: 50 * sim.Millisecond})
		var capper *macCap
		if graybox {
			capper = &macCap{bufBytes: bufBytes, limit: 4}
			web.Limit = func() int { return capper.limit }
			mix.Add(capper)
		}
		tr.begin("workload.run")
		err := mix.RunFor(s, sz.serveFor)
		tr.end(1)
		if err != nil {
			return outcome{}, err
		}

		if n := web.Errors(); n > 0 {
			return outcome{}, fmt.Errorf("%d web requests failed", n)
		}
		c := layerCounts(before, statsOf(s))
		c.webServed, c.webDropped, c.webErrors = web.Served(), web.Dropped(), web.Errors()
		d := newDigester()
		d.add("load=%v graybox=%v", load, graybox)
		lat := web.Latency()
		d.add("latency n=%d p50=%d p99=%d p999=%d", lat.Count(), lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999))
		if slo := web.SLO(); slo != nil {
			d.add("slo %d/%d first=%d", slo.Violations(), slo.Total(), slo.FirstViolation())
		}
		q, ca, di, ap := web.StageTotals()
		d.add("stages %d %d %d %d", q, ca, di, ap)
		if capper != nil {
			st := capper.ctl.Stats()
			c.macPages, c.macBackoffs = st.PagesProbed, st.Backoffs
			d.add("cap %d", capper.limit)
			d.addMAC(st)
		}
		d.addCounts(c)
		return outcome{digest: d.sum(), counts: c}, nil
	}}, nil
}

// macCap drives the web server's in-flight cap from MAC probes, as the
// slo experiment's gray-box arm does: additive increase while a small
// GBAlloc window fits at memory speed, halving the moment it does not.
type macCap struct {
	bufBytes int64
	limit    int
	ctl      *mac.Controller
}

func (a *macCap) Name() string                { return "maccap" }
func (a *macCap) Prepare(*simos.System) error { return nil }

func (a *macCap) Run(ctx *wl.Ctx) {
	os := ctx.OS()
	window := min(max(4*a.bufBytes, simos.MB), 8*simos.MB)
	a.ctl = mac.New(os, mac.Config{InitialIncrement: simos.MB, MaxIncrement: window})
	for !ctx.Stopped() {
		clean := false
		if al, ok := a.ctl.GBAlloc(simos.MB, window, simos.MB); ok {
			clean = al.Bytes >= window
			a.ctl.GBFree(al)
		}
		if clean && a.limit < serveCap {
			a.limit++
		} else if !clean && a.limit > 1 {
			a.limit /= 2
		}
		os.Sleep(50 * sim.Millisecond)
	}
}

// --- scan ---

// setupScan lays down a corpus 1.5x the file cache and warms a seeded
// half of it by inserting its pages straight into the cache (reading
// them through a process would leave disk busy time, which a snapshot
// cannot carry).
func setupScan(sz size, seed uint64, tr *tracer) (*trialSet, error) {
	var paths []string
	fileBytes := sz.scanFileKB * 1024
	base, err := snapshotBase(tr, func() (*simos.System, error) {
		s := simos.New(machine(sz.scanMB, 0))
		fsys := s.FS(0)
		if err := fsys.Mkdir(nil, "data"); err != nil {
			return nil, err
		}
		n := int(usableBytes(s) * 3 / 2 / fileBytes)
		paths = make([]string, n)
		for i := range paths {
			paths[i] = fmt.Sprintf("data/f%04d", i)
			if _, err := fsys.CreateSized(paths[i], fileBytes); err != nil {
				return nil, err
			}
		}
		for _, k := range sim.NewRNG(seed).Perm(n)[:n/2] {
			ino, err := fsys.InoOf(paths[k])
			if err != nil {
				return nil, err
			}
			blocks, err := fsys.BlocksOf(paths[k])
			if err != nil {
				return nil, err
			}
			for pg, blk := range blocks {
				s.Cache.Insert(nil, cache.PageID{Ino: int64(ino), Index: int64(pg)},
					cache.BlockAddr{Disk: fsys.Disk(), Block: blk}, false)
			}
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return &trialSet{n: sz.scanTrials, run: func(i int, tr *tracer) (outcome, error) {
		ts := trialSeed(seed, i)
		s := fork(tr, base, ts)
		before := statsOf(s)
		listing := append([]string(nil), paths...)
		sim.NewRNG(ts).Shuffle(len(listing), func(a, b int) { listing[a], listing[b] = listing[b], listing[a] })

		d := newDigester()
		var det *fccd.Detector
		var ctl *mac.Controller
		var fe firstErr
		err := s.Run("scan", func(os *simos.OS) {
			det = fccd.New(os, fccd.Config{Seed: ts})
			start := tr.now()
			probes, err := det.OrderFiles(listing)
			tr.leaf("fccd.order", start, 1)
			if !fe.ok(err) {
				return
			}
			for _, p := range probes {
				d.add("probe %s %d", p.Path, p.ProbeTime)
			}
			start = tr.now()
			order, err := fldc.New(os).ComposeWithFCCD(det, listing)
			tr.leaf("fldc.compose", start, 1)
			if !fe.ok(err) {
				return
			}
			d.add("order %v", order)
			// Read everything in the composed order, then re-read the half
			// read last, which the cache should still hold.
			t0 := os.Now()
			for _, p := range order {
				if !fe.ok(readFile(os, p, tr)) {
					return
				}
			}
			t1 := os.Now()
			for _, p := range order[len(order)/2:] {
				if !fe.ok(readFile(os, p, tr)) {
					return
				}
			}
			d.add("read %d reread %d", t1-t0, os.Now()-t1)
			ctl = mac.New(os, mac.Config{})
			start = tr.now()
			al, ok := ctl.GBAlloc(simos.MB, usableBytes(s)/8, simos.MB)
			tr.leaf("mac.gballoc", start, 1)
			if ok {
				d.add("gballoc %d", al.Bytes)
				ctl.GBFree(al)
			}
		})
		if err == nil {
			err = fe.err
		}
		if err != nil {
			return outcome{}, err
		}
		c := layerCounts(before, statsOf(s))
		st := ctl.Stats()
		c.fccdProbes, c.macPages, c.macBackoffs = det.Probes(), st.PagesProbed, st.Backoffs
		d.addMAC(st)
		d.addCounts(c)
		return outcome{digest: d.sum(), counts: c}, nil
	}}, nil
}

// readFile reads a whole file through the OS. Traced, it records the
// read as a hit span (no cache miss) or a miss span, per page.
func readFile(os *simos.OS, path string, tr *tracer) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	c := os.System().Cache
	misses := c.Stats().Misses
	start := tr.now()
	if err := fd.Read(0, fd.Size()); err != nil {
		return err
	}
	if tr != nil {
		name := "simos.read.hit"
		if c.Stats().Misses != misses {
			name = "simos.read.miss"
		}
		ps := int64(os.PageSize())
		tr.leaf(name, start, (fd.Size()+ps-1)/ps)
	}
	return nil
}

// --- churn ---

// churnDirs is how many directories the aged tree spreads over.
const churnDirs = 8

// setupChurn ages a directory tree with harness-level file system calls
// (no process, so no virtual time and no disk I/O, which a snapshot
// could not carry): passes of create+write, unlink and rename, dropping
// the cache after each pass so write-behind never has to flush.
func setupChurn(sz size, seed uint64, tr *tracer) (*trialSet, error) {
	base, err := snapshotBase(tr, func() (*simos.System, error) {
		s := simos.New(machine(sz.churnMB, 0))
		fsys := s.FS(0)
		if err := fsys.Mkdir(nil, "tree"); err != nil {
			return nil, err
		}
		for k := 0; k < churnDirs; k++ {
			if err := fsys.Mkdir(nil, fmt.Sprintf("tree/d%d", k)); err != nil {
				return nil, err
			}
		}
		rng := sim.NewRNG(seed)
		var live []string
		next := 0
		name := func(prefix string) string {
			next++
			return fmt.Sprintf("tree/d%d/%s%05d", rng.Intn(churnDirs), prefix, next)
		}
		for pass := 0; pass < sz.churnAgePasses; pass++ {
			for k := 0; k < sz.churnFiles; k++ {
				p := name("f")
				f, err := fsys.Create(nil, p)
				if err != nil {
					return nil, err
				}
				if err := f.Write(nil, 0, int64(1+rng.Intn(8))*4096); err != nil {
					return nil, err
				}
				live = append(live, p)
			}
			for k := 0; k < sz.churnFiles/2; k++ {
				j := rng.Intn(len(live))
				if err := fsys.Unlink(nil, live[j]); err != nil {
					return nil, err
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for k := 0; k < sz.churnFiles/8; k++ {
				j := rng.Intn(len(live))
				p := name("r")
				if err := fsys.Rename(nil, live[j], p); err != nil {
					return nil, err
				}
				live[j] = p
			}
			s.DropCaches()
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return &trialSet{n: sz.churnTrials, run: func(i int, tr *tracer) (outcome, error) {
		s := fork(tr, base, trialSeed(seed, i))
		before := statsOf(s)
		d := newDigester()
		var fe firstErr
		// meta times one metadata call (create, unlink, rename, mkdir).
		meta := func(call func() error) bool {
			start := tr.now()
			err := call()
			tr.leaf("simos.meta", start, 1)
			return fe.ok(err)
		}
		err := s.Run("churn", func(os *simos.OS) {
			for e := 0; e < sz.churnEpochs; e++ {
				dir := fmt.Sprintf("w%d", e)
				if !meta(func() error { return os.Mkdir(dir) }) {
					return
				}
				// Write past the dirty threshold so the writer throttles.
				var files []string
				for k := 0; k < sz.churnWrites; k++ {
					p := fmt.Sprintf("%s/f%03d", dir, k)
					var fd *simos.Fd
					if !meta(func() (err error) { fd, err = os.Create(p); return err }) {
						return
					}
					start := tr.now()
					for off := int64(0); off < sz.churnWriteKB*1024; off += 64 * 1024 {
						if !fe.ok(fd.Write(off, 64*1024)) {
							return
						}
					}
					tr.leaf("simos.write", start, sz.churnWriteKB*1024/int64(os.PageSize()))
					files = append(files, p)
				}
				// Unlink every other file; move the rest into the aged tree.
				for k, p := range files {
					call := func() error { return os.Unlink(p) }
					if k%2 == 1 {
						to := fmt.Sprintf("tree/d%d/e%d.%d.%03d", (i+k)%churnDirs, i, e, k)
						call = func() error { return os.Rename(p, to) }
					}
					if !meta(call) {
						return
					}
				}
				if !meta(func() error { return os.Rmdir(dir) }) {
					return
				}
				d.add("epoch %d at %d", e, os.Now())
			}
			start := tr.now()
			err := fldc.New(os).Refresh(fmt.Sprintf("tree/d%d", i%churnDirs), fldc.BySize)
			tr.leaf("fldc.refresh", start, 1)
			fe.ok(err)
		})
		if err == nil {
			err = fe.err
		}
		if err != nil {
			return outcome{}, err
		}

		// Cold read of the whole tree in i-number order.
		s.DropCaches()
		err = s.Run("coldread", func(os *simos.OS) {
			var paths []string
			for k := 0; k < churnDirs; k++ {
				dir := fmt.Sprintf("tree/d%d", k)
				names, err := os.Readdir(dir)
				if !fe.ok(err) {
					return
				}
				for _, n := range names {
					paths = append(paths, dir+"/"+n)
				}
			}
			order, err := fldc.New(os).OrderByINumber(paths)
			if !fe.ok(err) {
				return
			}
			d.add("order %v", order)
			t0 := os.Now()
			for _, p := range order {
				if !fe.ok(readFile(os, p, tr)) {
					return
				}
			}
			d.add("coldread %d free %d", os.Now()-t0, os.System().FS(0).FreeSpace())
		})
		if err == nil {
			err = fe.err
		}
		if err != nil {
			return outcome{}, err
		}
		c := layerCounts(before, statsOf(s))
		d.addCounts(c)
		return outcome{digest: d.sum(), counts: c}, nil
	}}, nil
}

// --- swarm ---

// swarmWave bounds how many swarm processes are live at once.
const swarmWave = 4096

// swarmInputs are one trial's seeded inputs: timer delays, one nap
// length per sleeper, and a start delay and CPU burst per spawned process.
type swarmInputs struct {
	delays, naps, starts, bursts []sim.Time
}

// setupSwarm draws every trial's inputs from the seed. The trials
// themselves each run a bare engine with two simulated CPUs, so cache,
// VM and disk work cannot reach them.
func setupSwarm(sz size, seed uint64, _ *tracer) (*trialSet, error) {
	inputs := make([]swarmInputs, sz.swarmTrials)
	for i := range inputs {
		rng := sim.NewRNG(trialSeed(seed, i))
		draw := func(n int, lo, span sim.Time) []sim.Time {
			v := make([]sim.Time, n)
			for k := range v {
				v[k] = lo + sim.Time(rng.Int63n(int64(span)))
			}
			return v
		}
		inputs[i] = swarmInputs{
			delays: draw(sz.swarmTimers, 0, 10*sim.Millisecond),
			naps:   draw(sz.swarmSleepers, sim.Microsecond, sim.Millisecond),
			starts: draw(sz.swarmSpawns, 0, sim.Millisecond),
			bursts: draw(sz.swarmSpawns, 20*sim.Microsecond, 180*sim.Microsecond),
		}
	}
	return &trialSet{n: sz.swarmTrials, run: func(i int, tr *tracer) (outcome, error) {
		in := inputs[i]
		e := sim.NewEngine(trialSeed(seed, i))
		e.SetCPUs(2, 0)
		d := newDigester()

		// A: closure timers.
		var fired int64
		var sum sim.Time
		tr.begin("sim.timers")
		for _, delay := range in.delays {
			e.After(delay, func() {
				fired++
				sum += e.Now()
			})
		}
		e.Run()
		tr.end(int64(len(in.delays)))
		d.add("timers %d %d at %d", fired, sum, e.Now())

		// B: sleeping processes handing control back and forth.
		procs := make([]*sim.Proc, 0, len(in.naps)+1)
		tr.begin("sim.sleeps")
		for _, nap := range in.naps {
			nap := nap
			procs = append(procs, e.Spawn("sleeper", 0, func(p *sim.Proc) {
				for j := 0; j < sz.swarmSleeps; j++ {
					p.Sleep(nap)
				}
			}))
		}
		e.Run()
		tr.end(int64(len(in.naps) * sz.swarmSleeps))
		d.add("sleeps at %d", e.Now())

		// C: short processes spawned in waves, each one contended burst.
		done := 0
		tr.begin("sim.spawns")
		procs = append(procs, e.Go("swarm", func(p *sim.Proc) {
			for launched := 0; launched < sz.swarmSpawns; {
				n := min(swarmWave, sz.swarmSpawns-launched)
				for j := launched; j < launched+n; j++ {
					j := j
					e.Spawn("burst", in.starts[j], func(q *sim.Proc) {
						q.Compute(in.bursts[j])
						done++
					})
				}
				launched += n
				for done < launched {
					p.Sleep(500 * sim.Microsecond)
				}
			}
		}))
		e.Run()
		tr.end(int64(sz.swarmSpawns))
		for _, p := range procs {
			if err := p.Err(); err != nil {
				return outcome{}, err
			}
		}
		c := counts{ctxSwitches: e.ContextSwitches(), virtual: e.Now()}
		d.add("spawns %d at %d", done, e.Now())
		d.addCounts(c)
		return outcome{digest: d.sum(), counts: c}, nil
	}}, nil
}
