package experiments

import (
	"fmt"

	"graybox/internal/apps"
	"graybox/internal/core/fccd"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/stats"
)

// Fig2Config parameterizes the single-file scan experiment (Figure 2).
type Fig2Config struct {
	Scale Scale
	// FileSizesMB sweeps the file size through the cache size (paper
	// values, scaled). Zero selects defaults straddling the cache size.
	FileSizesMB []float64
}

func (c Fig2Config) withDefaults() Fig2Config {
	if c.Scale.MemoryMB == 0 {
		c.Scale = FullScale()
	}
	if len(c.FileSizesMB) == 0 {
		c.FileSizesMB = []float64{128, 256, 512, 768, 830, 896, 1024, 1280}
	}
	return c
}

// Fig2 measures warm-cache repeated scans: the traditional linear scan
// collapses to disk rate once the file exceeds the cache (LRU worst
// case), while the gray-box scan's I/O stays proportional to
// (file - cache). The two model lines of the figure are computed from
// microbenchmarked rates.
func Fig2(cfg Fig2Config) *Table {
	cfg = cfg.withDefaults()
	sc := cfg.Scale
	t := &Table{
		ID:      "fig2",
		Title:   "Single-file scan, warm cache: linear vs gray-box (plus model lines)",
		Columns: []string{"file", "linear", "gray-box", "model-worst", "model-ideal", "fccd-audit"},
	}

	costs := apps.DefaultCosts()
	// Every file size is an independent trial on its own platform; rows
	// are assembled back in sweep order.
	rows := RunTrials(len(cfg.FileSizesMB), func(si int) []string {
		sizeMB := cfg.FileSizesMB[si]
		s := newSystem(simos.Linux22, sc, 2000+uint64(si))
		aud := s.EnableAudit() // scores every FCCD prediction GBScan makes
		cacheBytes := int64(s.Pool.Capacity()) * int64(s.PageSize())
		fileSize := sc.mb(sizeMB) * simos.MB
		_, err := s.FS(0).CreateSized("data", fileSize)
		mustNoErr(err)

		// Calibrate model rates on this machine: sequential disk
		// bandwidth and in-cache copy rate.
		var diskNsPerByte, copyNsPerByte float64
		mustRun(s, "calibrate", func(os *simos.OS) {
			probeSize := int64(8 * simos.MB)
			if probeSize > fileSize {
				probeSize = fileSize
			}
			fd, err := os.Open("data")
			mustNoErr(err)
			t0 := os.Now()
			mustNoErr(fd.Read(0, probeSize))
			diskNsPerByte = float64(os.Now()-t0) / float64(probeSize)
			t0 = os.Now()
			mustNoErr(fd.Read(0, probeSize))
			copyNsPerByte = float64(os.Now()-t0) / float64(probeSize)
		})

		measure := func(gb bool) sim.Time {
			s.DropCaches()
			var times []float64
			for trial := 0; trial <= sc.Trials; trial++ {
				var elapsed sim.Time
				mustRun(s, "scan", func(os *simos.OS) {
					if gb {
						det := fccd.New(os, fccd.Config{
							AccessUnit:     scaledAccessUnit(sc),
							PredictionUnit: scaledPredictionUnit(sc),
							Seed:           uint64(100*si + trial),
						})
						r, err := apps.GBScan(os, det, "data", costs)
						mustNoErr(err)
						elapsed = r.Elapsed
					} else {
						r, err := apps.Scan(os, "data", costs)
						mustNoErr(err)
						elapsed = r.Elapsed
					}
				})
				if trial > 0 { // first run warms the cache
					times = append(times, float64(elapsed))
				}
			}
			return sim.Time(stats.Mean(times))
		}

		linear := measure(false)
		gray := measure(true)
		worst := sim.Time(float64(fileSize) * diskNsPerByte)
		inCache := fileSize
		if inCache > cacheBytes {
			inCache = cacheBytes
		}
		ideal := sim.Time(float64(inCache)*copyNsPerByte + float64(fileSize-inCache)*diskNsPerByte)

		// The oracle-grounded cache-content accuracy over every FCCD
		// prediction the gray-box scans made at this file size.
		fccdAcc := "-"
		if rep := aud.Report(); rep.FCCD != nil {
			fccdAcc = fmt.Sprintf("%.3f", rep.FCCD.Accuracy)
		}

		return []string{fmt.Sprintf("%dMB", fileSize/simos.MB),
			linear.String(), gray.String(), worst.String(), ideal.String(), fccdAcc}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	// The machine sized here runs nothing, so it is built untracked and
	// stays out of the exports.
	t.AddNote("cache ~%d MB at this scale; linear scan collapses past it, gray-box tracks the ideal model", usableMB(buildSystem(simos.Linux22, sc, 0)))
	t.AddNote("fccd-audit: fraction of prediction units whose cached/uncached call matched the simulator oracle")
	return t
}

// scaledAccessUnit shrinks the paper's 20 MB access unit with the scale.
func scaledAccessUnit(sc Scale) int64 { return sc.mb(20) * simos.MB }

// scaledPredictionUnit shrinks the paper's 5 MB prediction unit.
func scaledPredictionUnit(sc Scale) int64 { return sc.mb(5) * simos.MB }
