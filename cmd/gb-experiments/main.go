// Command gb-experiments regenerates every table and figure of the
// paper's evaluation on the simulated platforms.
//
// Usage:
//
//	gb-experiments [-scale full|quick] [-parallel N]
//	               [-markdown] [-list] [-o file] [-bench-out file]
//	               [-trace file] [-metrics file] [-audit file]
//	               [-profile file] [-cpuprofile file] [-memprofile file]
//	               [-workload list] [-cpus list] [id ...]
//
// Flags must precede the ids: the first id ends flag parsing, so a flag
// after it is read as an unknown id and the run exits 2.
//
// With no ids, all experiments run in paper order. Available ids:
// table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 mac-accuracy
// priorart-sweeps noise stash slo. -list prints the registered ids
// (with titles) and exits without running anything.
//
// -workload selects which background generators the noise experiment
// runs (comma-separated subset of scan,zipf,hog,web; default all).
//
// Each experiment fans its independent trials (seeds, personalities,
// sweep points) out over a worker pool of -parallel goroutines; every
// trial builds its own platform (engine, RNG, virtual clock), so output
// is byte-identical at any pool width. -bench-out records
// per-experiment wall-clock and simulated-time totals as JSON so the
// suite's performance is comparable across revisions.
//
// -trace and -metrics enable the telemetry subsystem on every platform
// the experiments build: -trace writes a Chrome trace_event JSON file
// (loadable in about://tracing or https://ui.perfetto.dev), -metrics a
// deterministic counters/histograms snapshot (JSON when the path ends in
// .json, aligned text otherwise). Both files are byte-identical at any
// -parallel width.
//
// -audit scores every ICL prediction against the simulator's ground
// truth (the oracle the real paper never had) and writes the accuracy
// report as JSON. -profile writes a folded-stack virtual-time profile —
// feed it to flamegraph.pl or https://www.speedscope.app — and prints a
// top-span table to stderr. Both are byte-identical at any -parallel
// width too.
//
// -profile attributes virtual (simulated) time; -cpuprofile and
// -memprofile attribute real machine cost. -cpuprofile samples the
// run's actual CPU and -memprofile snapshots heap allocations at exit;
// both write standard pprof files for `go tool pprof`. They answer the
// complementary question — not "where does the simulated workload spend
// its day" but "what does the simulator itself burn cycles and garbage
// on" — and they are how the zero-allocation kernel hot paths in
// internal/cache, internal/vm, and internal/ring were found and proven.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"graybox/internal/audit"
	"graybox/internal/bench"
	"graybox/internal/experiments"
	"graybox/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's body, returning the exit code instead of calling
// os.Exit so deferred cleanup — stopping the CPU profiler, flushing the
// heap profile — runs on every exit path.
func run(args []string) int {
	cfg, err := parseConfig(args, os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0 // usage already printed by the flag set
		}
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "[cpu profile written to %s]\n", cfg.cpuProfile)
		}()
	}
	if cfg.memProfile != "" {
		defer func() {
			runtime.GC() // flush unreachable objects so live-heap numbers are honest
			if err := writeFileWith(cfg.memProfile, func(w io.Writer) error {
				return pprof.Lookup("allocs").WriteTo(w, 0)
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Fprintf(os.Stderr, "[mem profile written to %s]\n", cfg.memProfile)
		}()
	}
	if cfg.list {
		for _, r := range experiments.All() {
			fmt.Printf("%-16s %s\n", r.ID, r.Title)
		}
		return 0
	}
	experiments.SetParallelism(cfg.parallel)
	experiments.EnableTelemetry(cfg.telemetryOn())
	experiments.EnableAudit(cfg.auditPath != "")

	var out io.Writer = os.Stdout
	if cfg.outPath != "" {
		f, err := os.Create(cfg.outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		out = f
	}

	report := bench.Report{
		Scale:      cfg.scale.Name,
		Parallel:   experiments.Parallelism(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var regs []*telemetry.Registry
	var auds []*audit.Auditor
	suiteStart := time.Now()
	for _, r := range cfg.runners {
		start := time.Now()
		tab := r.Run(cfg.scale)
		elapsed := time.Since(start)
		// Drain per experiment so each registry's label carries the
		// experiment id and the file keeps run order.
		virtual, rs, as := experiments.Drain(r.ID)
		regs, auds = append(regs, rs...), append(auds, as...)
		if cfg.markdown {
			fmt.Fprintln(out, tab.Markdown())
		} else {
			fmt.Fprintln(out, tab)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v wall-clock (%v simulated) at scale %s]\n",
			r.ID, elapsed.Round(time.Millisecond), virtual, cfg.scale.Name)
		report.Experiments = append(report.Experiments, bench.Entry{
			ID:        r.ID,
			WallMS:    float64(elapsed.Microseconds()) / 1000,
			VirtualMS: virtual.Millis(),
		})
	}
	report.TotalWallMS = float64(time.Since(suiteStart).Microseconds()) / 1000

	writeMetrics := telemetry.WriteMetricsText
	if strings.HasSuffix(cfg.metricsPath, ".json") {
		writeMetrics = telemetry.WriteMetricsJSON
	}
	for _, f := range []struct {
		path, name string
		write      func(io.Writer) error
	}{
		{cfg.tracePath, "trace", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, regs) }},
		{cfg.metricsPath, "metrics", func(w io.Writer) error { return writeMetrics(w, regs) }},
		{cfg.profilePath, "profile", func(w io.Writer) error { return telemetry.WriteFolded(w, regs) }},
		{cfg.auditPath, "audit report", func(w io.Writer) error { return audit.WriteJSON(w, auds) }},
		{cfg.benchOut, "bench report", func(w io.Writer) error {
			data, err := json.MarshalIndent(report, "", "  ")
			if err == nil {
				_, err = w.Write(append(data, '\n'))
			}
			return err
		}},
	} {
		if f.path == "" {
			continue
		}
		if err := writeFileWith(f.path, f.write); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "[%s written to %s]\n", f.name, f.path)
	}
	if cfg.profilePath != "" {
		if err := telemetry.WriteTopTable(os.Stderr, regs, 20); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
