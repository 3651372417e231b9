package main

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"graybox/internal/experiments"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := parseConfig(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.scale.Name != "full" {
		t.Errorf("scale = %q, want full", c.scale.Name)
	}
	if c.markdown || c.parallel != 0 || c.outPath != "" || c.benchOut != "" {
		t.Errorf("defaults not zero: %+v", c)
	}
	if c.telemetryOn() {
		t.Error("telemetry on with no -trace/-metrics/-profile")
	}
	if c.auditPath != "" || c.profilePath != "" {
		t.Errorf("audit/profile paths not empty by default: %+v", c)
	}
	if c.cpuProfile != "" || c.memProfile != "" {
		t.Errorf("cpu/mem profile paths not empty by default: %+v", c)
	}
	if len(c.runners) == 0 {
		t.Error("no runners selected by default")
	}
}

func TestParseConfigFlags(t *testing.T) {
	c, err := parseConfig([]string{
		"-scale", "quick", "-markdown", "-parallel", "8",
		"-o", "out.txt", "-bench-out", "bench.json",
		"-trace", "t.json", "-metrics", "m.json",
		"-audit", "a.json", "-profile", "p.folded",
		"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof",
		"fig2", "fig5",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.scale.Name != "quick" || !c.markdown || c.parallel != 8 {
		t.Errorf("flags not applied: %+v", c)
	}
	if c.outPath != "out.txt" || c.benchOut != "bench.json" {
		t.Errorf("paths not applied: %+v", c)
	}
	if c.tracePath != "t.json" || c.metricsPath != "m.json" || !c.telemetryOn() {
		t.Errorf("telemetry flags not applied: %+v", c)
	}
	if c.auditPath != "a.json" || c.profilePath != "p.folded" {
		t.Errorf("audit/profile flags not applied: %+v", c)
	}
	if c.cpuProfile != "cpu.pprof" || c.memProfile != "mem.pprof" {
		t.Errorf("cpu/mem profile flags not applied: %+v", c)
	}
	if len(c.runners) != 2 || c.runners[0].ID != "fig2" || c.runners[1].ID != "fig5" {
		t.Errorf("runners = %+v, want [fig2 fig5]", c.runners)
	}
}

// TestProfileImpliesTelemetry: the profiler consumes spans, so -profile
// alone must switch the telemetry subsystem on.
func TestProfileImpliesTelemetry(t *testing.T) {
	c, err := parseConfig([]string{"-profile", "p.folded"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.telemetryOn() {
		t.Error("-profile alone did not enable telemetry")
	}
}

// TestRealProfilesDontImplyTelemetry: -cpuprofile/-memprofile measure
// the simulator itself, not the simulated workload, so they must not
// switch on the virtual-time telemetry subsystem (which has its own
// overhead and would distort what they measure).
func TestRealProfilesDontImplyTelemetry(t *testing.T) {
	c, err := parseConfig([]string{"-cpuprofile", "c.pprof", "-memprofile", "m.pprof"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.telemetryOn() {
		t.Error("-cpuprofile/-memprofile should not enable virtual-time telemetry")
	}
}

func TestParseConfigWorkload(t *testing.T) {
	defer experiments.SetNoiseWorkloads(nil)
	c, err := parseConfig([]string{"-workload", "scan, hog"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.workloads) != 2 || c.workloads[0] != "scan" || c.workloads[1] != "hog" {
		t.Errorf("workloads = %v, want [scan hog]", c.workloads)
	}
	if got := experiments.NoiseWorkloads(); len(got) != 2 || got[0] != "scan" || got[1] != "hog" {
		t.Errorf("selection not applied to experiments package: %v", got)
	}
}

func TestParseConfigCPUs(t *testing.T) {
	defer experiments.SetCPUList(nil)
	c, err := parseConfig([]string{"-cpus", "0, 2,4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.cpus) != 3 || c.cpus[0] != 0 || c.cpus[1] != 2 || c.cpus[2] != 4 {
		t.Errorf("cpus = %v, want [0 2 4]", c.cpus)
	}
	if got := experiments.CPUList(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Errorf("selection not applied to experiments package: %v", got)
	}
}

// TestListFlag: -list prints every registered experiment id and exits
// successfully without running anything.
func TestListFlag(t *testing.T) {
	c, err := parseConfig([]string{"-list"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.list {
		t.Fatal("-list not parsed into config")
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	code := run([]string{"-list"})
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("run(-list) = %d, want 0", code)
	}
	for _, want := range experiments.All() {
		if !strings.Contains(string(out), want.ID) {
			t.Errorf("-list output missing id %q:\n%s", want.ID, out)
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"bad scale", []string{"-scale", "huge"}, `unknown scale "huge"`},
		{"bad experiment", []string{"nosuchfig"}, `unknown experiment "nosuchfig"`},
		{"negative parallel", []string{"-parallel", "-3"}, "negative"},
		{"bad flag", []string{"-bogus"}, "bogus"},
		{"non-numeric parallel", []string{"-parallel", "lots"}, "invalid"},
		{"bad workload", []string{"-workload", "scan,bitcoin"}, `unknown workload "bitcoin"`},
		{"non-numeric cpus", []string{"-cpus", "0,many"}, "invalid"},
		{"negative cpus", []string{"-cpus", "-1"}, "negative"},
		{"shard-parallel flag removed", []string{"-shard-parallel", "2"}, "not defined"},
		{"snapshot flag removed", []string{"-snapshot=false"}, "not defined"},
		{"mega scale removed", []string{"-scale", "mega"}, `unknown scale "mega"`},
		// Flag parsing stops at the first id, so a later flag is an id.
		{"flag after id", []string{"fig2", "-o", "out.txt"}, `unknown experiment "-o"`},
		// Valid selections on a rejected command line must not be applied.
		{"selections before bad id", []string{"-workload", "scan", "-cpus", "2", "nosuchfig"}, `unknown experiment "nosuchfig"`},
		{"workload before bad cpus", []string{"-workload", "scan", "-cpus", "2,-1"}, "negative"},
		{"cpus before bad workload", []string{"-cpus", "2", "-workload", "scan,bitcoin"}, `unknown workload "bitcoin"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			workloads, cpus := experiments.NoiseWorkloads(), experiments.CPUList()
			_, err := parseConfig(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("parseConfig(%v) succeeded, want error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if got := experiments.NoiseWorkloads(); !slices.Equal(got, workloads) {
				t.Errorf("rejected command line changed the workload selection: %v -> %v", workloads, got)
			}
			if got := experiments.CPUList(); !slices.Equal(got, cpus) {
				t.Errorf("rejected command line changed the cpu selection: %v -> %v", cpus, got)
			}
		})
	}
}

// FuzzParseConfig feeds parseConfig argument lists (the input split on
// NUL). It must never panic, and must return a config exactly when it
// returns no error. A config must hold a known scale, a non-negative
// -parallel and registered experiment ids, and the experiments package
// must report its -workload and -cpus selections. A rejected command
// line must leave both process-wide selections as they were.
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var args []string
		if len(data) > 0 {
			args = strings.Split(string(data), "\x00")
		}
		// Start every input from the default selections, so a failure
		// replays on its own. Resetting to nil cannot fail.
		_ = experiments.SetNoiseWorkloads(nil)
		_ = experiments.SetCPUList(nil)
		defer func() {
			_ = experiments.SetNoiseWorkloads(nil)
			_ = experiments.SetCPUList(nil)
		}()
		workloads, cpus := experiments.NoiseWorkloads(), experiments.CPUList()

		c, err := parseConfig(args, io.Discard)
		if (c == nil) == (err == nil) {
			t.Fatalf("parseConfig(%q) = %v, %v: want a config exactly when there is no error", args, c, err)
		}
		if err != nil {
			if got := experiments.NoiseWorkloads(); !slices.Equal(got, workloads) {
				t.Errorf("parseConfig(%q) failed (%v) but changed the workload selection: %v -> %v", args, err, workloads, got)
			}
			if got := experiments.CPUList(); !slices.Equal(got, cpus) {
				t.Errorf("parseConfig(%q) failed (%v) but changed the cpu selection: %v -> %v", args, err, cpus, got)
			}
			return
		}
		if c.scale.Name != "full" && c.scale.Name != "quick" {
			t.Errorf("parseConfig(%q): scale %q", args, c.scale.Name)
		}
		if c.parallel < 0 {
			t.Errorf("parseConfig(%q): -parallel %d", args, c.parallel)
		}
		for _, r := range c.runners {
			if experiments.ByID(r.ID) == nil || strings.HasPrefix(r.ID, "-") {
				t.Errorf("parseConfig(%q): runner %q", args, r.ID)
			}
		}
		if c.workloads != nil {
			workloads = c.workloads
		}
		if got := experiments.NoiseWorkloads(); !slices.Equal(got, workloads) {
			t.Errorf("parseConfig(%q): workload selection %v, want %v", args, got, workloads)
		}
		if c.cpus != nil {
			cpus = c.cpus
		}
		if got := experiments.CPUList(); !slices.Equal(got, cpus) {
			t.Errorf("parseConfig(%q): cpu selection %v, want %v", args, got, cpus)
		}
	})
}
