package experiments

import (
	"fmt"

	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/stats"
)

// Fig1Config parameterizes the probe-correlation experiment (Figure 1):
// how well does the presence of one random page predict the presence of
// its whole prediction unit, as the prediction unit grows, for three
// application access-unit sizes?
type Fig1Config struct {
	Scale Scale
	// AccessUnitsMB are the paper's 1 / 10 / 100 MB access patterns
	// (scaled). Zero selects defaults.
	AccessUnitsMB []float64
	// PredictionUnitsMB is the x-axis. Zero selects defaults.
	PredictionUnitsMB []float64
}

func (c Fig1Config) withDefaults() Fig1Config {
	if c.Scale.MemoryMB == 0 {
		c.Scale = FullScale()
	}
	if len(c.AccessUnitsMB) == 0 {
		c.AccessUnitsMB = []float64{1, 10, 100}
	}
	if len(c.PredictionUnitsMB) == 0 {
		c.PredictionUnitsMB = []float64{1, 2, 5, 10, 20, 50, 100}
	}
	return c
}

// Fig1 runs the experiment: flush the cache, access a file of roughly
// twice the cache size with a given access unit at random offsets, then
// (using the harness's kernel presence bitmap, as the authors did with a
// modified kernel) compute the Pearson correlation between "a random
// page of the unit is present" and "fraction of the unit present".
func Fig1(cfg Fig1Config) *Table {
	cfg = cfg.withDefaults()
	sc := cfg.Scale
	t := &Table{
		ID:      "fig1",
		Title:   "Probe correlation vs prediction-unit size",
		Columns: []string{"pred-unit"},
	}
	for _, au := range cfg.AccessUnitsMB {
		t.Columns = append(t.Columns, fmt.Sprintf("AU=%s", mbString(sc.bytes(au, 4096))))
	}

	type cell struct{ mean, sd float64 }

	// Each access unit is an independent trial: its own platform, file and
	// RNG stream, exactly as the sequential loop built them.
	perAU := RunTrials(len(cfg.AccessUnitsMB), func(ai int) []cell {
		s := buildSystem(simos.Linux22, sc, 1000+uint64(ai))
		fileSize := 2 * int64(s.Pool.Capacity()) * int64(s.PageSize())
		_, err := s.FS(0).CreateSized("data", fileSize)
		mustNoErr(err)
		trackSystem(s)
		au := sc.bytes(cfg.AccessUnitsMB[ai], s.PageSize())
		if au > fileSize {
			au = fileSize
		}

		// Collect per-trial correlations for each prediction unit.
		corrs := make([][]float64, len(cfg.PredictionUnitsMB))
		for trial := 0; trial < sc.Trials; trial++ {
			s.DropCaches()
			rng := sim.NewRNG(uint64(7*trial + ai))
			mustRun(s, "access", func(os *simos.OS) {
				fd, err := os.Open("data")
				mustNoErr(err)
				// Random-offset access-unit reads totaling one file size.
				var read int64
				for read < fileSize {
					off := rng.Int63n(fileSize - au + 1)
					off -= off % int64(s.PageSize())
					mustNoErr(fd.Read(off, au))
					read += au
				}
			})
			bitmap, err := s.FS(0).PresenceBitmap("data")
			mustNoErr(err)
			pageSize := int64(s.PageSize())
			for pi, puMB := range cfg.PredictionUnitsMB {
				pu := sc.bytes(puMB, s.PageSize())
				puPages := pu / pageSize
				if puPages < 1 {
					puPages = 1
				}
				var xs, ys []float64
				for start := int64(0); start+puPages <= int64(len(bitmap)); start += puPages {
					probe := start + rng.Int63n(puPages)
					present := 0.0
					if bitmap[probe] {
						present = 1
					}
					cached := 0
					for pg := start; pg < start+puPages; pg++ {
						if bitmap[pg] {
							cached++
						}
					}
					xs = append(xs, present)
					ys = append(ys, float64(cached)/float64(puPages))
				}
				if c := stats.Correlation(xs, ys); c == c { // skip NaN
					corrs[pi] = append(corrs[pi], c)
				}
			}
		}
		cells := make([]cell, len(cfg.PredictionUnitsMB))
		for pi := range cfg.PredictionUnitsMB {
			cells[pi] = cell{stats.Mean(corrs[pi]), stats.StdDev(corrs[pi])}
		}
		return cells
	})

	for pi, puMB := range cfg.PredictionUnitsMB {
		row := []string{mbString(sc.bytes(puMB, 4096))}
		for ai := range cfg.AccessUnitsMB {
			row = append(row, fmt.Sprintf("%.2f±%.2f", perAU[ai][pi].mean, perAU[ai][pi].sd))
		}
		t.AddRow(row...)
	}
	t.AddNote("file = 2x cache; expectation: correlation high while pred-unit <= access-unit, falling beyond it")
	return t
}

// mbString formats a byte count in MB or KB.
func mbString(b int64) string {
	if b >= simos.MB {
		return fmt.Sprintf("%dMB", b/simos.MB)
	}
	return fmt.Sprintf("%dKB", b>>10)
}
