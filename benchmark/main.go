// Command benchmark measures what regenerating results on the simulator
// costs in host time and memory, on five workloads, and checks that
// every trial's simulated output matches the committed digests.
//
//	bash benchmark/run.sh --workload scan --seed 1 --seconds 20 --trace 0
//
// It prints every metric as "name value unit", then a run manifest as
// one JSON line, then the result as one JSON line:
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 it also
// records host-time spans around its own calls into each layer and a CPU
// profile, writes them under .bench_build/trace/, and reports the
// per-layer metrics instead of the end-to-end ones. README.md describes
// the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graybox/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	size     string
	update   bool
	list     bool
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: suite, serve, scan, churn or swarm")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every trial's inputs are derived from")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds to measure, after an untimed warm-up a fifth as long: whole passes over the trial set, as many as come closest (at least one)")
	fs.IntVar(&trace, "trace", 0, "1 records spans and a CPU profile and reports the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<n>.json)")
	fs.StringVar(&o.size, "size", "full", "full, or smoke for the smoke test")
	fs.BoolVar(&o.update, "update", false, "rewrite the committed digests for seeds 1 and 2 (of -workload, or all) and exit")
	fs.BoolVar(&o.list, "list", false, "print every metric name and unit and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	if _, ok := sizes[o.size]; !ok {
		return o, fmt.Errorf("unknown size %q (want full or smoke)", o.size)
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("-seconds %v is negative", o.seconds)
	}
	if o.list || (o.update && o.workload == "") {
		return o, nil
	}
	if workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want suite, serve, scan, churn or swarm)", o.workload)
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	switch {
	case o.list:
		for _, m := range append(endToEndMetrics(), perLayerMetrics()...) {
			fmt.Fprintf(stdout, "%s %s\n", m.name, m.unit)
		}
		return 0
	case o.update:
		if err := updateDigests(o); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	rep, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user regenerating results pays, measured
// with tracing off.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"},
		{"trial_ms.p50", "ms"}, {"trial_ms.p90", "ms"},
		{"vsim_per_s", "vs/s"}, {"alloc_mb", "MB"}, {"peak_rss_mb", "MB"},
	}
}

// perLayerMetrics are the layer counts (from every run) and the host
// timings, CPU-profile shares and tracing overhead (from a traced run).
func perLayerMetrics() []metricDef {
	m := []metricDef{
		{"sim.timer_ns", "ns"}, {"sim.sleep_ns", "ns"}, {"sim.spawn_ns", "ns"},
		{"sim.ctx_switches", "count"}, {"sim.virtual_s", "vs"},
		{"simos.fork_ms", "ms"}, {"simos.snapshot_ms", "ms"},
		{"simos.read_hit_ns", "ns"}, {"simos.read_miss_ns", "ns"},
		{"simos.write_ns", "ns"}, {"simos.meta_ns", "ns"},
		{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.hit_ratio", "ratio"},
		{"cache.evictions", "count"}, {"cache.writebacks", "count"}, {"cache.throttle_flushes", "count"},
		{"vm.zero_fills", "count"}, {"vm.swap_ins", "count"}, {"vm.swap_outs", "count"}, {"vm.daemon_scans", "count"},
		{"disk.reads", "count"}, {"disk.writes", "count"}, {"disk.blocks_read", "count"},
		{"disk.blocks_wrote", "count"}, {"disk.busy_vs", "vs"},
		{"fccd.order_ms", "ms"}, {"fccd.probes", "count"}, {"fldc.compose_ms", "ms"},
		{"mac.gballoc_ms", "ms"}, {"mac.pages_probed", "count"}, {"mac.backoffs", "count"},
		{"web.served", "count"}, {"web.dropped", "count"}, {"web.errors", "count"},
	}
	for _, r := range experiments.All() {
		m = append(m, metricDef{"exp." + r.ID + ".wall_ms", "ms"})
	}
	for _, g := range cpuGroups {
		m = append(m, metricDef{"cpu." + g + ".pct", "%"})
	}
	return append(m, metricDef{"trace_overhead_pct", "%"})
}

// countMetrics are the per-layer metrics that are deterministic counts.
func countMetrics(c counts) map[string]float64 {
	ratio := 0.0
	if n := c.cacheHits + c.cacheMisses; n > 0 {
		ratio = float64(c.cacheHits) / float64(n)
	}
	return map[string]float64{
		"sim.ctx_switches": float64(c.ctxSwitches), "sim.virtual_s": c.virtual.Seconds(),
		"cache.hits": float64(c.cacheHits), "cache.misses": float64(c.cacheMisses), "cache.hit_ratio": ratio,
		"cache.evictions": float64(c.evictions), "cache.writebacks": float64(c.writebacks),
		"cache.throttle_flushes": float64(c.throttle),
		"vm.zero_fills":          float64(c.zeroFills), "vm.swap_ins": float64(c.swapIns),
		"vm.swap_outs": float64(c.swapOuts), "vm.daemon_scans": float64(c.daemonScans),
		"disk.reads": float64(c.diskReads), "disk.writes": float64(c.diskWrites),
		"disk.blocks_read": float64(c.blocksRead), "disk.blocks_wrote": float64(c.blocksWrote),
		"disk.busy_vs": c.diskBusy.Seconds(),
		"fccd.probes":  float64(c.fccdProbes), "mac.pages_probed": float64(c.macPages), "mac.backoffs": float64(c.macBackoffs),
		"web.served": float64(c.webServed), "web.dropped": float64(c.webDropped), "web.errors": float64(c.webErrors),
	}
}

// passStat is one pass over the fixed trial set.
type passStat struct {
	wall, cpu time.Duration
	allocMB   float64
	traced    bool
}

// report is everything one run measured.
type report struct {
	o        options
	w        *workload
	setup    []time.Duration
	perPass  int
	passes   []passStat
	trialMS  []float64 // untraced trials
	counts   counts    // each trial's first run; every run repeats it
	verified bool      // digests are committed for this size, workload and seed

	attempted, failed int

	tr       *tracer
	profiles [][]byte
	peakRSS  float64
}

// measure sets the workload up several times (setup_s is the median),
// warms up, then runs passes over its trial set for about o.seconds. A
// traced run alternates untraced and traced passes, so the end-to-end
// numbers and the tracing overhead come from the same process.
func measure(o options, stderr io.Writer) (*report, error) {
	// The simulator runs one goroutine at a time: every simulated process
	// hands control to the engine and back. With a second P, each handoff
	// wakes a thread on another core, which on a shared host measures the
	// host's scheduler more than the simulator.
	runtime.GOMAXPROCS(1)
	experiments.SetParallelism(1)
	w := workloadByName(o.workload)
	sz := sizes[o.size]
	rep := &report{o: o, w: w}
	if o.trace {
		rep.tr = newTracer()
	}

	// Set up at least setupReps times and for at least setupFor; setup_s is
	// the median. A shared host's speed can change every few hundred
	// milliseconds, so a median over a second of set-ups repeats where one
	// over a few does not. Each set-up starts from a collected heap, untimed, so the
	// garbage of earlier ones neither slows it nor raises the peak resident
	// set.
	var table digestTable
	var set *trialSet
	setupStart := time.Now()
	for r := 0; r < sz.setupReps || time.Since(setupStart) < sz.setupFor; r++ {
		table, set = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if table, err = parseDigests(committedDigests); err != nil {
			return nil, err
		}
		if set, err = w.setup(sz, o.seed, rep.tr); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		rep.setup = append(rep.setup, time.Since(t0))
	}
	runtime.GC()
	rep.perPass = set.n
	want := table[digestKey(o.size, w, o.seed)]
	rep.verified = want != nil
	if rep.verified && len(want) != set.n {
		return nil, fmt.Errorf("digests: %d committed for %s, trial set has %d (rerun -update)",
			len(want), digestKey(o.size, w, o.seed), set.n)
	}

	// Every run of a trial is checked against the committed digest and
	// against the trial's first run; the first run's counts are the run's.
	ran := make([]bool, set.n)
	first := make([]string, set.n)
	check := func(i int, out outcome, err error) {
		rep.attempted++
		switch {
		case err != nil:
			rep.fail(stderr, "trial %d: %v", i, err)
		case want != nil && out.digest != want[i]:
			rep.fail(stderr, "trial %d: digest %s, committed %s", i, out.digest, want[i])
		case ran[i] && out.digest != first[i]:
			rep.fail(stderr, "trial %d: digest %s differs from its first run's %s", i, out.digest, first[i])
		}
		if !ran[i] {
			ran[i], first[i] = true, out.digest
			rep.counts.add(out.counts)
		}
	}
	// Warm up, untimed, for a fifth of the measuring time, running the
	// trials in order. On a shared 2-vCPU VM, a fresh process's first
	// seconds ran up to 1.7x slower than the rest of its run.
	warm := time.Now()
	for k := 0; time.Since(warm).Seconds() < o.seconds/5; k++ {
		out, err := runTrial(set, k%set.n, nil)
		check(k%set.n, out, err)
	}
	// Run whole passes, as many as bring the measured time closest to
	// o.seconds: another pass starts only if it is expected to end nearer
	// the target than stopping now does.
	start := time.Now()
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	another := func() bool {
		last := rep.passes[len(rep.passes)-1].wall
		return (time.Since(start) + last/2).Seconds() < o.seconds
	}
	for pass := 0; pass < minPasses || another(); pass++ {
		traced := o.trace && pass%2 == 1
		if err := rep.runPass(set, pass, traced, check); err != nil {
			return nil, err
		}
	}
	// With no committed digests and a single pass, determinism is the only
	// check left: re-run every tenth trial and compare.
	if !rep.verified && len(rep.passes) == 1 {
		for i := 0; i < set.n; i += 10 {
			out, err := runTrial(set, i, nil)
			check(i, out, err)
		}
	}
	rep.peakRSS = peakRSSMB()
	if o.trace {
		if err := rep.writeTrace(); err != nil {
			return nil, err
		}
		writeSelfTimes(stderr, rep.tr.stats())
	}
	return rep, nil
}

func (rep *report) fail(stderr io.Writer, format string, args ...any) {
	rep.failed++
	if rep.failed <= 5 {
		fmt.Fprintf(stderr, "FAIL %s: "+format+"\n", append([]any{rep.w.name}, args...)...)
	}
}

// runPass runs every trial of the set once, in order, calling done with
// each outcome. Traced passes record spans and a CPU profile whose
// samples are labelled with the workload.
func (rep *report) runPass(set *trialSet, pass int, traced bool, done func(int, outcome, error)) error {
	var tr *tracer
	var prof bytes.Buffer
	if traced {
		tr = rep.tr
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	cpu0, alloc0 := cpuTime(), totalAllocMB()
	t0 := time.Now()
	trials := func() {
		for i := 0; i < set.n; i++ {
			if tr != nil {
				tr.trial = i
			}
			ts := time.Now()
			out, err := runTrial(set, i, tr)
			d := time.Since(ts)
			if !traced && err == nil {
				rep.trialMS = append(rep.trialMS, float64(d)/1e6)
			}
			done(i, out, err)
		}
	}
	if traced {
		pprof.Do(context.Background(), pprof.Labels("workload", rep.w.name, "phase", fmt.Sprintf("pass%d", pass)),
			func(context.Context) { trials() })
	} else {
		trials()
	}
	ps := passStat{wall: time.Since(t0), cpu: cpuTime() - cpu0, allocMB: totalAllocMB() - alloc0, traced: traced}
	if traced {
		pprof.StopCPUProfile()
		rep.profiles = append(rep.profiles, prof.Bytes())
	}
	rep.passes = append(rep.passes, ps)
	return nil
}

// runTrial runs one trial, turning a panic into an error.
func runTrial(set *trialSet, i int, tr *tracer) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return set.run(i, tr)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad argument
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss, in KiB on Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// passMedian is the median of f over the traced or untraced passes.
func (rep *report) passMedian(traced bool, f func(passStat) float64) float64 {
	var v []float64
	for _, p := range rep.passes {
		if p.traced == traced {
			v = append(v, f(p))
		}
	}
	return median(v)
}

func (rep *report) endToEnd() map[string]float64 {
	setup := make([]float64, len(rep.setup))
	for i, d := range rep.setup {
		setup[i] = d.Seconds()
	}
	trials := append([]float64(nil), rep.trialMS...)
	sort.Float64s(trials)
	wall := rep.passMedian(false, func(p passStat) float64 { return p.wall.Seconds() })
	vsim := 0.0
	if wall > 0 {
		vsim = rep.counts.virtual.Seconds() / wall // every pass advances the same virtual time
	}
	return map[string]float64{
		"setup_s":      median(setup),
		"wall_s":       wall,
		"cpu_s":        rep.passMedian(false, func(p passStat) float64 { return p.cpu.Seconds() }),
		"trial_ms.p50": percentile(trials, 0.50),
		"trial_ms.p90": percentile(trials, 0.90),
		"vsim_per_s":   vsim,
		"alloc_mb":     rep.passMedian(false, func(p passStat) float64 { return p.allocMB }),
		"peak_rss_mb":  rep.peakRSS,
	}
}

// perLayer computes the per-layer metrics of a traced run.
func (rep *report) perLayer() (map[string]float64, error) {
	m := countMetrics(rep.counts)
	st := rep.tr.stats()
	m["sim.timer_ns"] = perUnitNS(st, "sim.timers")
	m["sim.sleep_ns"] = perUnitNS(st, "sim.sleeps")
	m["sim.spawn_ns"] = perUnitNS(st, "sim.spawns")
	m["simos.fork_ms"] = meanMS(st, "simos.fork")
	m["simos.snapshot_ms"] = meanMS(st, "simos.snapshot")
	m["simos.read_hit_ns"] = perUnitNS(st, "simos.read.hit")
	m["simos.read_miss_ns"] = perUnitNS(st, "simos.read.miss")
	m["simos.write_ns"] = perUnitNS(st, "simos.write")
	m["simos.meta_ns"] = perUnitNS(st, "simos.meta")
	m["fccd.order_ms"] = meanMS(st, "fccd.order")
	m["fldc.compose_ms"] = meanMS(st, "fldc.compose")
	m["mac.gballoc_ms"] = meanMS(st, "mac.gballoc")
	for _, r := range experiments.All() {
		m["exp."+r.ID+".wall_ms"] = meanMS(st, "exp."+r.ID)
	}
	shares, err := cpuShares(rep.profiles)
	if err != nil {
		return nil, err
	}
	for g, v := range shares {
		m["cpu."+g+".pct"] = v
	}
	wall := func(p passStat) float64 { return p.wall.Seconds() }
	if u := rep.passMedian(false, wall); u > 0 {
		m["trace_overhead_pct"] = 100 * (rep.passMedian(true, wall)/u - 1)
	}
	return m, nil
}

func (rep *report) writeTrace() error {
	if err := os.MkdirAll(filepath.Dir(rep.o.traceOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(rep.o.traceOut)
	if err != nil {
		return err
	}
	if err := rep.tr.writeChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	base := strings.TrimSuffix(rep.o.traceOut, ".json")
	for k, p := range rep.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.pass%d.pprof", base, 2*k+1), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// write prints the metric lines, the manifest and the result line.
func (rep *report) write(w io.Writer) error {
	e2e := rep.endToEnd()
	for _, m := range endToEndMetrics() {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(e2e[m.name], 'f', -1, 64), m.unit)
	}
	fmt.Fprintf(w, "fail_frac %v fraction\n", float64(rep.failed)/float64(max(rep.attempted, 1)))
	fmt.Fprintf(w, "trials %d count\n", len(rep.trialMS))
	layer := countMetrics(rep.counts) // an untraced run has only the counts
	if rep.o.trace {
		var err error
		if layer, err = rep.perLayer(); err != nil {
			return err
		}
	}
	for _, m := range perLayerMetrics() {
		if v, ok := layer[m.name]; ok {
			fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(v, 'f', -1, 64), m.unit)
		}
	}

	digests := "unverified"
	if rep.verified {
		digests = "verified"
	}
	fmt.Fprintf(w, "digests: %s\n", digests)
	passWalls := make([]float64, len(rep.passes))
	for i, p := range rep.passes {
		passWalls[i] = p.wall.Seconds()
	}
	man := map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"trial_pool_width": experiments.Parallelism(), "workload": rep.w.name, "seed": rep.o.seed,
		"size": rep.o.size, "seconds": rep.o.seconds, "trace": rep.o.trace, "setup_reps": len(rep.setup),
		"trials_per_pass": rep.perPass, "passes": len(rep.passes), "trials": rep.attempted,
		"digests": digests, "git": gitHead(), "pass_wall_s": passWalls,
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"manifest": man}); err != nil {
		return err
	}

	metrics := map[string]any{}
	defs, values := endToEndMetrics(), e2e
	if rep.o.trace {
		defs, values = perLayerMetrics(), layer
	}
	for _, m := range defs {
		metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"correct": rep.failed == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
}

// gitHead returns the commit checked out in the working directory, read
// from .git directly ("" outside a git checkout).
func gitHead() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// updateDigests reruns one pass of each workload (or just -workload) for
// the committed seeds and rewrites the digest file.
func updateDigests(o options) error {
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		return err
	}
	table, err := parseDigests(raw)
	if err != nil {
		return err
	}
	experiments.SetParallelism(1)
	sz := sizes[o.size]
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		seeds := updateSeeds
		if !w.seeded {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			set, err := w.setup(sz, seed, nil)
			if err != nil {
				return fmt.Errorf("%s setup: %w", w.name, err)
			}
			ds := make([]string, set.n)
			for i := range ds {
				out, err := runTrial(set, i, nil)
				if err != nil {
					return fmt.Errorf("%s trial %d: %w", w.name, i, err)
				}
				ds[i] = out.digest
			}
			table[digestKey(o.size, w, seed)] = ds
		}
	}
	return writeDigests(table)
}
