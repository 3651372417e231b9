package experiments

import (
	"fmt"

	"graybox/internal/apps"
	"graybox/internal/core/fccd"
	"graybox/internal/sim"
	"graybox/internal/simos"
)

// Fig4Config parameterizes the multi-platform experiment (Figure 4):
// large-file scans and multi-file searches on Linux, NetBSD and Solaris
// personalities, reporting cold, warm and gray-box warm times normalized
// to the cold time on each platform.
type Fig4Config struct {
	Scale Scale
}

func (c Fig4Config) withDefaults() Fig4Config {
	if c.Scale.MemoryMB == 0 {
		c.Scale = FullScale()
	}
	return c
}

// Fig4 runs both benchmarks on all three personalities.
func Fig4(cfg Fig4Config) *Table {
	cfg = cfg.withDefaults()
	sc := cfg.Scale
	t := &Table{
		ID:      "fig4",
		Title:   "Multi-platform scans and searches (normalized to cold per platform)",
		Columns: []string{"platform", "benchmark", "cold", "warm", "gray-box", "warm/cold", "gb/cold"},
	}
	costs := apps.DefaultCosts()
	platforms := []simos.Personality{simos.Linux22, simos.NetBSD15, simos.Solaris7}

	// Each (platform, benchmark) pair runs on its own system, so the six
	// cells run as independent units; rows keep the paper's order.
	scanRows := make([][]string, len(platforms))
	searchRows := make([][]string, len(platforms))
	ForEachTrial(2*len(platforms), func(u int) {
		pi, kind := u/2, u%2
		if kind == 0 {
			scanRows[pi] = fig4Scan(sc, pi, platforms[pi], costs)
		} else {
			searchRows[pi] = fig4Search(sc, pi, platforms[pi], costs)
		}
	})
	for pi := range platforms {
		t.AddRow(scanRows[pi]...)
		t.AddRow(searchRows[pi]...)
	}
	t.AddNote("paper: Linux warm scan ~ cold (LRU); NetBSD small fixed cache; Solaris warm scans fast even unmodified (hold-first); gray-box search wins everywhere")
	return t
}

// fig4Scan runs one platform's large-file scan benchmark. Linux and
// Solaris scan a ~1 GB file; NetBSD's fixed cache is 64 MB, so (like the
// paper, which reports best-case gray-box behavior there) it scans a file
// sized to its own cache.
func fig4Scan(sc Scale, pi int, p simos.Personality, costs apps.Costs) []string {
	scanMB := sc.mb(1024)
	if p == simos.NetBSD15 {
		scanMB = sc.netbsdCacheMB() + 1
	}
	s := newSystem(p, sc, 4000+uint64(pi))
	_, err := s.FS(0).CreateSized("data", scanMB*simos.MB)
	mustNoErr(err)

	var cold, warm, gb sim.Time
	mustRun(s, "scan", func(os *simos.OS) {
		r, err := apps.Scan(os, "data", costs)
		mustNoErr(err)
		cold = r.Elapsed
		r, err = apps.Scan(os, "data", costs)
		mustNoErr(err)
		warm = r.Elapsed
		det := fccd.New(os, fccd.Config{
			AccessUnit:     scaledAccessUnit(sc),
			PredictionUnit: scaledPredictionUnit(sc),
			Seed:           uint64(pi),
		})
		r2, err := apps.GBScan(os, det, "data", costs)
		mustNoErr(err)
		gb = r2.Elapsed
	})
	return []string{string(p), fmt.Sprintf("scan %dMB", scanMB), cold.String(), warm.String(), gb.String(),
		fmt.Sprintf("%.2f", float64(warm)/float64(cold)),
		fmt.Sprintf("%.2f", float64(gb)/float64(cold))}
}

// fig4Search runs one platform's multi-file search benchmark: 100 x 10 MB
// files (65 x 1 MB on NetBSD). The matching string is in a cached file
// listed LAST on the command line: maximum benefit for the gray-box
// search.
func fig4Search(sc Scale, pi int, p simos.Personality, costs apps.Costs) []string {
	nFiles, fileMB := 100, sc.mb(10)
	if p == simos.NetBSD15 {
		nFiles, fileMB = 65, sc.mb(14)/14 // ~1 MB scaled
		if fileMB < 1 {
			fileMB = 1
		}
	}
	s2 := newSystem(p, sc, 4100+uint64(pi))
	mustRun(s2, "mk", func(os *simos.OS) { mustNoErr(os.Mkdir("corpus")) })
	var paths []string
	for i := 0; i < nFiles; i++ {
		path := fmt.Sprintf("corpus/t%03d", i)
		_, err := s2.FS(0).CreateSized(path, fileMB*simos.MB)
		mustNoErr(err)
		paths = append(paths, path)
	}
	match := paths[len(paths)-1]

	var sCold, sWarm, sGB sim.Time
	mustRun(s2, "search", func(os *simos.OS) {
		r, err := apps.Search(os, paths, match, costs)
		mustNoErr(err)
		sCold = r.Elapsed
		// Warm state for the remaining runs: only the match file is
		// cached (the paper configures the maximum-benefit case).
		s2.DropCaches()
		fd, err := os.Open(match)
		mustNoErr(err)
		mustNoErr(fd.Read(0, fd.Size()))
		det := fccd.New(os, fccd.Config{
			AccessUnit:     scaledAccessUnit(sc),
			PredictionUnit: scaledPredictionUnit(sc),
			Seed:           uint64(pi + 7),
		})
		r2, err := apps.GBSearch(os, det, paths, match, costs)
		mustNoErr(err)
		sGB = r2.Elapsed
		// Traditional search gets no advantage: it still walks the
		// command-line order and finds the match last.
		r, err = apps.Search(os, paths, match, costs)
		mustNoErr(err)
		sWarm = r.Elapsed
	})
	return []string{string(p), fmt.Sprintf("search %dx%dMB", nFiles, fileMB),
		sCold.String(), sWarm.String(), sGB.String(),
		fmt.Sprintf("%.2f", float64(sWarm)/float64(sCold)),
		fmt.Sprintf("%.2f", float64(sGB)/float64(sCold))}
}
