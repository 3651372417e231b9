package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graybox/internal/experiments"
)

// config is the parsed, validated command line.
type config struct {
	scale       experiments.Scale
	markdown    bool
	list        bool
	outPath     string
	parallel    int
	benchOut    string
	tracePath   string
	metricsPath string
	auditPath   string
	profilePath string
	cpuProfile  string
	memProfile  string
	workloads   []string
	cpus        []int
	runners     []experiments.Runner
}

// telemetryOn reports whether any telemetry export was requested. The
// profiler consumes spans, so -profile implies telemetry too.
func (c *config) telemetryOn() bool {
	return c.tracePath != "" || c.metricsPath != "" || c.profilePath != ""
}

// parseConfig parses and validates the argument list (without the
// program name), writing usage/flag errors to stderr. It is main's
// entire flag surface, kept separate so tests can drive it with bad
// inputs.
func parseConfig(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("gb-experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are returned; -h prints below
	scaleName := fs.String("scale", "full", "experiment scale: full (paper-size) or quick")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavored markdown instead of aligned text")
	list := fs.Bool("list", false, "print the registered experiment ids and exit")
	outPath := fs.String("o", "", "write output to file (default stdout)")
	parallel := fs.Int("parallel", 0, "trial worker-pool width (0 = GOMAXPROCS)")
	benchOut := fs.String("bench-out", "", "write per-experiment wall/virtual time JSON to file (e.g. BENCH_experiments.json)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON file (open in about://tracing or Perfetto)")
	metricsPath := fs.String("metrics", "", "write a metrics snapshot; .json extension selects JSON, otherwise aligned text")
	auditPath := fs.String("audit", "", "score every ICL prediction against the simulator oracle and write the audit report JSON to file")
	profilePath := fs.String("profile", "", "write a folded-stack virtual-time profile (flamegraph.pl / speedscope input) and print a top-span table to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a real-CPU pprof profile of the run to file (go tool pprof input)")
	memProfile := fs.String("memprofile", "", "write a heap allocation pprof profile taken at exit to file")
	workloadList := fs.String("workload", "", "comma-separated background generators for the noise experiment (default scan,zipf,hog,web)")
	cpusList := fs.String("cpus", "", "comma-separated simulated-processor counts swept by the noise and slo experiments (0 = uncontended infinite-core model, the default)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fs.SetOutput(stderr)
			fs.Usage()
		}
		return nil, err
	}

	c := &config{
		markdown:    *markdown,
		list:        *list,
		outPath:     *outPath,
		parallel:    *parallel,
		benchOut:    *benchOut,
		tracePath:   *tracePath,
		metricsPath: *metricsPath,
		auditPath:   *auditPath,
		profilePath: *profilePath,
		cpuProfile:  *cpuProfile,
		memProfile:  *memProfile,
	}
	switch *scaleName {
	case "full":
		c.scale = experiments.FullScale()
	case "quick":
		c.scale = experiments.QuickScale()
	default:
		return nil, fmt.Errorf("unknown scale %q (want full or quick)", *scaleName)
	}
	if c.parallel < 0 {
		return nil, fmt.Errorf("-parallel %d is negative", c.parallel)
	}
	if *workloadList != "" {
		names := strings.Split(*workloadList, ",")
		for i, n := range names {
			names[i] = strings.TrimSpace(n)
		}
		if err := experiments.SetNoiseWorkloads(names); err != nil {
			return nil, err
		}
		c.workloads = names
	}
	if *cpusList != "" {
		var cpus []int
		for _, part := range strings.Split(*cpusList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("-cpus %q: %v", *cpusList, err)
			}
			cpus = append(cpus, n)
		}
		if err := experiments.SetCPUList(cpus); err != nil {
			return nil, fmt.Errorf("-cpus %q: %v", *cpusList, err)
		}
		c.cpus = cpus
	}

	if ids := fs.Args(); len(ids) > 0 {
		for _, id := range ids {
			r := experiments.ByID(id)
			if r == nil {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
			c.runners = append(c.runners, *r)
		}
	} else {
		c.runners = experiments.All()
	}
	return c, nil
}
