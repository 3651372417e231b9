package experiments

import (
	"fmt"
	"sort"

	"graybox/internal/core/fccd"
	"graybox/internal/core/fldc"
	"graybox/internal/core/mac"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/workload"
)

// NoiseConfig parameterizes the contention sweep: every ICL is scored
// against the simulator oracle while a background workload mix runs at
// increasing intensity.
type NoiseConfig struct {
	Scale Scale
	// Intensities sweeps the workload duty cycle; 0 is the quiescent
	// baseline every earlier experiment measured.
	Intensities []float64
	// Workloads names the generators to mix (subset of
	// NoiseWorkloadNames; empty selects the -workload flag value, or
	// all of them).
	Workloads []string
	// CPUList sweeps simulated-processor counts (empty selects the
	// -cpus flag value, defaulting to the uncontended model only). For
	// entries >= 1 the scan and web generators charge per-KB CPU, so the
	// mix contends for processors as well as memory and disks.
	CPUList []int
}

func (c NoiseConfig) withDefaults() NoiseConfig {
	if c.Scale.MemoryMB == 0 {
		c.Scale = FullScale()
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	if len(c.Workloads) == 0 {
		c.Workloads = NoiseWorkloads()
	}
	if len(c.CPUList) == 0 {
		c.CPUList = CPUList()
	}
	return c
}

// NoiseWorkloadNames returns the generator names the noise sweep knows,
// in canonical order.
func NoiseWorkloadNames() []string { return []string{"scan", "zipf", "hog", "web"} }

// noiseWorkloads is the process-wide -workload selection; empty means
// all generators. Set before experiments run (the CLI does it once at
// startup), read by every trial.
var noiseWorkloads []string

// SetNoiseWorkloads selects which generators the noise sweep runs (the
// CLI's -workload flag). Unknown names are rejected; nil restores the
// full mix.
func SetNoiseWorkloads(names []string) error {
	known := map[string]bool{}
	for _, n := range NoiseWorkloadNames() {
		known[n] = true
	}
	for _, n := range names {
		if !known[n] {
			return fmt.Errorf("unknown workload %q (want one of %v)", n, NoiseWorkloadNames())
		}
	}
	noiseWorkloads = append([]string(nil), names...)
	return nil
}

// NoiseWorkloads returns the current -workload selection, defaulting to
// every generator.
func NoiseWorkloads() []string {
	if len(noiseWorkloads) > 0 {
		return append([]string(nil), noiseWorkloads...)
	}
	return NoiseWorkloadNames()
}

// noiseMix builds the background mix for one trial, sized against the
// trial platform's usable memory so the quick and full scales see the
// same relative pressure. On a contended machine (cpus >= 1) the scan
// and web generators also charge per-KB CPU — grep-style matching and
// request rendering — so the mix competes for processors, not just
// frames and disk arms.
func noiseMix(seed uint64, intensity float64, names []string, usable int64, cpus int) *workload.Mix {
	var scanCPU, webCPU sim.Time
	if cpus > 0 {
		scanCPU = 2 * sim.Microsecond // ~500 MB/s matching
		webCPU = 20 * sim.Microsecond // ~1.3ms render per 64KB file
	}
	m := workload.NewMix(seed, intensity)
	for _, n := range names {
		switch n {
		case "scan":
			// A file half the cache size churns the LRU bottom without
			// instantly flushing the ICL's working set.
			m.Add(&workload.Scanner{FileMB: max(usable/2, 4), CPUPerKB: scanCPU})
		case "zipf":
			// 64-file corpus totalling half the cache: hot head stays
			// resident, cold tail forces evictions.
			m.Add(&workload.ZipfReader{Files: 64, FileKB: max(usable*1024/128, 64)})
		case "hog":
			m.Add(&workload.MemHog{}) // 40% of the pool at intensity 1
		case "web":
			m.Add(&workload.WebServer{Files: 32, FileKB: 64, RatePerSec: 400, CPUPerKB: webCPU})
		}
	}
	return m
}

// Noise measures how each ICL's oracle-scored quality decays as
// competing traffic ramps up. Per intensity, one platform runs the mix
// while an ICL process repeatedly drives FCCD cache-content probing,
// the FLDC+FCCD composed ordering, and MAC admissions; the platform's
// auditor scores every prediction against ground truth. Timing-based
// inferences (FCCD splits, MAC thresholds) degrade with contention;
// FLDC's stat-based ordering does not — exactly the robustness contrast
// the paper's Section 5 caveats predict.
func Noise(cfg NoiseConfig) *Table {
	cfg = cfg.withDefaults()
	sc := cfg.Scale
	names := append([]string(nil), cfg.Workloads...)
	sort.Strings(names)
	sweep := cpuSweepActive(cfg.CPUList)
	cols := []string{"intensity", "fccd-acc", "fccd-conf", "fldc-tau",
		"mac-err", "mac-admit", "probes", "probe-ms"}
	if sweep {
		// The cpus column appears only when a non-default list is set,
		// so default sweep output stays byte-identical.
		cols = append([]string{"cpus"}, cols...)
	}
	t := &Table{
		ID:      "noise",
		Title:   "ICL accuracy under competing workload traffic",
		Columns: cols,
	}

	// Every intensity runs on its own machine: Linux at this scale with
	// the cpus value's processors, plus the ICL's target files.
	const nTargets = 8
	for ci, cpus := range cfg.CPUList {
		base := ci * len(cfg.Intensities)
		rows := RunTrials(len(cfg.Intensities), func(ii int) []string {
			intensity := cfg.Intensities[ii]
			seed := 9000 + 97*uint64(base+ii)
			s := buildSystemCPUs(simos.Linux22, sc, seed, cpus)
			usable := usableMB(s)
			// The ICL's own working set: 8 files totalling half the cache,
			// half of them warmed (by the trial) so the FCCD confusion
			// matrix sees both cached and uncached truth.
			targetBytes := max(usable/(2*nTargets), 1) * simos.MB
			paths := make([]string, nTargets)
			for i := range paths {
				paths[i] = fmt.Sprintf("icl.target.%d", i)
				_, err := s.FS(0).CreateSized(paths[i], targetBytes)
				mustNoErr(err)
			}
			trackSystem(s)
			aud := s.EnableAudit()

			mix := noiseMix(seed, intensity, names, usable, cpus)
			_, err := mix.Start(s)
			mustNoErr(err)

			// The ICL starts after the mix has had 50ms to establish cache
			// and memory pressure (a no-op at intensity 0).
			p := s.Spawn("icl", 50*sim.Millisecond, func(os *simos.OS) {
				for i := 0; i < len(paths); i += 2 {
					fd, err := os.Open(paths[i])
					mustNoErr(err)
					mustNoErr(fd.Read(0, fd.Size()))
				}
				det := fccd.New(os, fccd.Config{
					AccessUnit:     scaledAccessUnit(sc),
					PredictionUnit: scaledPredictionUnit(sc),
					Seed:           seed + 1,
				})
				lay := fldc.New(os)
				ctl := mac.New(os, mac.Config{
					InitialIncrement: sc.mb(4) * simos.MB,
					MaxIncrement:     sc.mb(64) * simos.MB,
				})
				for pass := 0; pass < sc.Trials; pass++ {
					for _, path := range paths {
						_, err := det.ProbeFile(path)
						mustNoErr(err)
					}
					_, err := lay.ComposeWithFCCD(det, paths)
					mustNoErr(err)
					if a, ok := ctl.GBAlloc(simos.MB, usable*simos.MB, simos.MB); ok {
						ctl.GBFree(a)
					}
					// Let the mix churn the caches between passes so each
					// pass faces fresh contention, not its own footprint.
					os.Sleep(20 * sim.Millisecond)
				}
			})
			s.Engine.WaitAll(p)
			mustNoErr(p.Err())
			mix.Stop()
			mix.Drain(s)

			rep := aud.Report()
			fccdAcc, fccdConf, fldcTau, macErr, macAdmit := "-", "-", "-", "-", "-"
			var probes, probeNS int64
			if r := rep.FCCD; r != nil {
				fccdAcc = fmt.Sprintf("%.3f", r.Accuracy)
				fccdConf = fmt.Sprintf("%d/%d/%d/%d", r.Confusion.TP, r.Confusion.FP, r.Confusion.TN, r.Confusion.FN)
				probes += r.Probes
				probeNS += r.ProbeNS
			}
			if r := rep.FLDC; r != nil {
				fldcTau = fmt.Sprintf("%.3f", r.Tau)
				probes += r.Probes
				probeNS += r.ProbeNS
			}
			if r := rep.MAC; r != nil {
				macErr = fmt.Sprintf("%.3f", r.MeanRelErr)
				macAdmit = fmt.Sprintf("%d/%d", r.Admits, r.Calls)
				probes += r.PagesProbed
				probeNS += r.ProbeNS
			}
			row := []string{fmt.Sprintf("%.2f", intensity), fccdAcc, fccdConf, fldcTau,
				macErr, macAdmit, fmt.Sprintf("%d", probes),
				fmt.Sprintf("%.2f", float64(probeNS)/1e6)}
			if sweep {
				row = append([]string{fmt.Sprintf("%d", cpus)}, row...)
			}
			return row
		})
		for _, row := range rows {
			t.AddRow(row...)
		}
	}
	t.AddNote("workloads: %v at each intensity (0 = quiescent baseline); confusion is TP/FP/TN/FN over oracle-checked FCCD predictions", names)
	t.AddNote("timing-based inferences (fccd-acc, mac-err) degrade with contention; FLDC's stat-based tau does not — probes are exact, not timed")
	if sweep {
		t.AddNote("cpus = simulated processors (0 = uncontended infinite-core model); on contended machines "+
			"scan charges %v/KB matching CPU and web %v/KB render CPU, so the mix queues for processors too",
			2*sim.Microsecond, 20*sim.Microsecond)
	}
	return t
}
