package experiments

import (
	"fmt"

	"graybox/internal/apps"
	"graybox/internal/core/fldc"
	"graybox/internal/sim"
	"graybox/internal/simos"
)

// Fig6Config parameterizes the aging experiment (Figure 6): 100 files in
// one directory; each epoch deletes 5 random files and creates 5 new
// ones; at the refresh epoch the directory is rewritten by the FLDC.
type Fig6Config struct {
	Scale        Scale
	NumFiles     int // default 100
	Epochs       int // default 40
	RefreshAt    int // default 31 (the paper refreshes at epoch 31)
	ChurnPerStep int // default 5
	ReportEvery  int // default 5 (plus the refresh neighborhood)
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.Scale.MemoryMB == 0 {
		c.Scale = FullScale()
	}
	if c.NumFiles == 0 {
		c.NumFiles = 100
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.RefreshAt == 0 {
		c.RefreshAt = 31
	}
	if c.ChurnPerStep == 0 {
		c.ChurnPerStep = 5
	}
	if c.ReportEvery == 0 {
		c.ReportEvery = 5
	}
	return c
}

// Fig6 ages a directory and tracks random-order vs i-number-order read
// time per epoch; the refresh restores i-number performance.
func Fig6(cfg Fig6Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig6",
		Title:   "Aging epochs: random vs i-number order; refresh at epoch " + fmt.Sprint(cfg.RefreshAt),
		Columns: []string{"epoch", "random", "i-number", "ino/random"},
	}
	costs := apps.DefaultCosts()
	// Unlike the other figures, fig6 is a single stateful timeline: every
	// epoch's churn mutates the one aged file system the next epoch
	// measures, so there is nothing to fan out and it runs inline.
	fig6Run(cfg, t, costs)
	t.AddNote("paper: i-number order degrades >3x by epoch 30 but stays better than random; refresh restores fresh performance")
	return t
}

func fig6Run(cfg Fig6Config, t *Table, costs apps.Costs) {
	sc := cfg.Scale
	s := newSystem(simos.Linux22, sc, 6000)
	mustRun(s, "mk", func(os *simos.OS) { mustNoErr(os.Mkdir("d")) })
	for i := 0; i < cfg.NumFiles; i++ {
		_, err := s.FS(0).CreateSized(fmt.Sprintf("d/f%04d", i), 2*4096)
		mustNoErr(err)
	}
	rng := sim.NewRNG(99)
	nextName := cfg.NumFiles

	measure := func(epoch int) {
		var names []string
		mustRun(s, "ls", func(os *simos.OS) {
			ns, err := os.Readdir("d")
			mustNoErr(err)
			names = ns
		})
		paths := make([]string, len(names))
		for i, n := range names {
			paths[i] = "d/" + n
		}
		random := append([]string(nil), paths...)
		rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })

		var tRandom, tIno sim.Time
		s.DropCaches()
		mustRun(s, "random", func(os *simos.OS) {
			r, err := apps.ScanFiles(os, random, costs)
			mustNoErr(err)
			tRandom = r.Elapsed
		})
		s.DropCaches()
		mustRun(s, "ino", func(os *simos.OS) {
			ordered, err := fldc.New(os).OrderByINumber(paths)
			mustNoErr(err)
			r, err := apps.ScanFiles(os, ordered, costs)
			mustNoErr(err)
			tIno = r.Elapsed
		})
		t.AddRow(fmt.Sprint(epoch), tRandom.String(), tIno.String(),
			fmt.Sprintf("%.2f", float64(tIno)/float64(tRandom)))
	}

	measure(0)
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if epoch == cfg.RefreshAt {
			mustRun(s, "refresh", func(os *simos.OS) {
				mustNoErr(fldc.New(os).Refresh("d", fldc.BySize))
			})
		} else {
			// Churn: delete ChurnPerStep random files, create as many
			// new ones with varied sizes (uniform sizes would let the
			// next-fit allocator repair holes perfectly).
			mustRun(s, "churn", func(os *simos.OS) {
				names, err := os.Readdir("d")
				mustNoErr(err)
				for k := 0; k < cfg.ChurnPerStep && len(names) > 0; k++ {
					idx := rng.Intn(len(names))
					mustNoErr(os.Unlink("d/" + names[idx]))
					names = append(names[:idx], names[idx+1:]...)
				}
				for k := 0; k < cfg.ChurnPerStep; k++ {
					fd, err := os.Create(fmt.Sprintf("d/f%04d", nextName))
					mustNoErr(err)
					nextName++
					mustNoErr(fd.Write(0, int64(rng.Intn(4)+1)*4096))
				}
			})
		}
		boundary := epoch == cfg.RefreshAt || epoch == cfg.RefreshAt-1 || epoch == cfg.Epochs
		if boundary || epoch%cfg.ReportEvery == 0 {
			measure(epoch)
		}
	}
}
