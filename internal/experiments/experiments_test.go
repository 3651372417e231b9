package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"graybox/internal/priorart"
)

// cellFloat parses a numeric table cell ("0.42", "3.21±0.02", "12MB",
// "1.50ms", "930.21us", "4.003s").
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	s := cell
	if i := strings.IndexRune(s, '±'); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSuffix(s, "MB")
	s = strings.TrimSuffix(s, "KB")
	// Convert durations to seconds for comparability.
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "ns"):
		s, mult = s[:len(s)-2], 1e-9
	case strings.HasSuffix(s, "us"):
		s, mult = s[:len(s)-2], 1e-6
	case strings.HasSuffix(s, "ms"):
		s, mult = s[:len(s)-2], 1e-3
	case strings.HasSuffix(s, "s"):
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", cell, err)
	}
	return v * mult
}

// findRow returns the first row whose leading cells match prefix.
func findRow(t *testing.T, tab *Table, prefix ...string) []string {
	t.Helper()
	for _, row := range tab.Rows {
		ok := len(row) >= len(prefix)
		for i := range prefix {
			if ok && row[i] != prefix[i] {
				ok = false
			}
		}
		if ok {
			return row
		}
	}
	t.Fatalf("%s: no row with prefix %v\n%s", tab.ID, prefix, tab)
	return nil
}

func TestTablesRender(t *testing.T) {
	for _, tab := range []*Table{Table1(), Table2()} {
		if len(tab.Rows) != 7 {
			t.Errorf("%s has %d rows, want 7", tab.ID, len(tab.Rows))
		}
		if s := tab.String(); !strings.Contains(s, tab.Title) {
			t.Errorf("%s text render missing title", tab.ID)
		}
		if md := tab.Markdown(); !strings.Contains(md, "| --- |") {
			t.Errorf("%s markdown render malformed", tab.ID)
		}
	}
}

func TestFig1CorrelationShape(t *testing.T) {
	sc := QuickScale()
	tab := Fig1(Fig1Config{
		Scale:             sc,
		AccessUnitsMB:     []float64{14, 140},           // ~1 MB and ~10 MB at quick scale
		PredictionUnitsMB: []float64{3.5, 14, 140, 280}, // 256KB .. 20MB
	})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d\n%s", len(tab.Rows), tab)
	}
	// For the large access unit (column 2), small prediction units must
	// correlate strongly...
	smallPU := cellFloat(t, tab.Rows[0][2])
	if smallPU < 0.7 {
		t.Errorf("correlation at small PU / large AU = %v, want high\n%s", smallPU, tab)
	}
	// ...and correlation must fall once the prediction unit far exceeds
	// the small access unit (column 1).
	bigPUsmallAU := cellFloat(t, tab.Rows[3][1])
	smallPUsmallAU := cellFloat(t, tab.Rows[0][1])
	if bigPUsmallAU >= smallPUsmallAU {
		t.Errorf("correlation did not fall with oversized PU: %v -> %v\n%s",
			smallPUsmallAU, bigPUsmallAU, tab)
	}
}

func TestFig2ScanShape(t *testing.T) {
	tab := Fig2(Fig2Config{Scale: QuickScale()})
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	// Small file (fits in cache): warm linear scan is fast (near ideal,
	// far from worst).
	linSmall := cellFloat(t, first[1])
	worstSmall := cellFloat(t, first[3])
	if linSmall > worstSmall/3 {
		t.Errorf("in-cache linear scan %v not well below worst model %v\n%s", linSmall, worstSmall, tab)
	}
	// Large file (beyond cache): linear collapses toward worst; gray-box
	// stays much faster and near the ideal model. The advantage peaks
	// just past the cache size and narrows as the file grows (I/O
	// dominates both), so check the peak ratio across rows.
	linBig := cellFloat(t, last[1])
	gbBig := cellFloat(t, last[2])
	worstBig := cellFloat(t, last[3])
	idealBig := cellFloat(t, last[4])
	if linBig < worstBig*0.6 {
		t.Errorf("beyond-cache linear scan %v, want near worst model %v\n%s", linBig, worstBig, tab)
	}
	if gbBig >= linBig {
		t.Errorf("gray-box scan %v not faster than linear %v\n%s", gbBig, linBig, tab)
	}
	if gbBig > idealBig*3 {
		t.Errorf("gray-box scan %v far from ideal model %v\n%s", gbBig, idealBig, tab)
	}
	best := 0.0
	for _, row := range tab.Rows {
		if r := cellFloat(t, row[1]) / cellFloat(t, row[2]); r > best {
			best = r
		}
	}
	if best < 2 {
		t.Errorf("peak linear/gray-box ratio %v, want >= 2 just past the cache size\n%s", best, tab)
	}
}

func TestFig3ApplicationShape(t *testing.T) {
	tab := Fig3(Fig3Config{Scale: QuickScale()})
	gbGrep := cellFloat(t, findRow(t, tab, "grep", "gb-grep")[3])
	pipeGrep := cellFloat(t, findRow(t, tab, "grep", "gbp|grep")[3])
	if gbGrep > 0.6 {
		t.Errorf("gb-grep normalized %v, want well below 1\n%s", gbGrep, tab)
	}
	if pipeGrep < gbGrep {
		t.Errorf("gbp|grep %v cheaper than gb-grep %v\n%s", pipeGrep, gbGrep, tab)
	}
	if pipeGrep > 1 {
		t.Errorf("gbp|grep %v lost all benefit\n%s", pipeGrep, tab)
	}
	gbSort := cellFloat(t, findRow(t, tab, "fastsort(read)", "gb-fastsort")[3])
	if gbSort >= 1 {
		t.Errorf("gb-fastsort normalized %v, want < 1\n%s", gbSort, tab)
	}
	// The paper: sort benefit smaller than grep benefit.
	if gbSort < gbGrep/4 {
		t.Errorf("sort benefit (%v) implausibly larger than grep's (%v)\n%s", gbSort, gbGrep, tab)
	}
}

func TestFig4MultiPlatformShape(t *testing.T) {
	tab := Fig4(Fig4Config{Scale: QuickScale()})
	var linuxScan, solarisScan, linuxSearch []string
	for _, row := range tab.Rows {
		switch {
		case row[0] == "linux22" && strings.HasPrefix(row[1], "scan"):
			linuxScan = row
		case row[0] == "solaris7" && strings.HasPrefix(row[1], "scan"):
			solarisScan = row
		case row[0] == "linux22" && strings.HasPrefix(row[1], "search"):
			linuxSearch = row
		}
	}
	// Linux: warm scan ~ cold (LRU), gray-box clearly better.
	if v := cellFloat(t, linuxScan[5]); v < 0.8 {
		t.Errorf("linux warm/cold = %v, want ~1 (LRU worst case)\n%s", v, tab)
	}
	if v := cellFloat(t, linuxScan[6]); v > 0.6 {
		t.Errorf("linux gb/cold = %v, want clear win\n%s", v, tab)
	}
	// Solaris: warm scans fast even unmodified (hold-first cache).
	if v := cellFloat(t, solarisScan[5]); v > 0.7 {
		t.Errorf("solaris warm/cold = %v, want low (scan-resistant cache)\n%s", v, tab)
	}
	// Search: gray-box finds the cached match immediately.
	if v := cellFloat(t, linuxSearch[6]); v > 0.2 {
		t.Errorf("linux search gb/cold = %v, want tiny\n%s", v, tab)
	}
	if v := cellFloat(t, linuxSearch[5]); v < 0.8 {
		t.Errorf("linux search warm/cold = %v, want ~1 (no benefit without gray-box)\n%s", v, tab)
	}
}

func TestFig5OrderingShape(t *testing.T) {
	tab := Fig5(Fig5Config{Scale: QuickScale()})
	for _, row := range tab.Rows {
		dirRatio := cellFloat(t, row[4])
		inoRatio := cellFloat(t, row[5])
		if dirRatio >= 1.05 {
			t.Errorf("%s: dir sort ratio %v, want <= ~1\n%s", row[0], dirRatio, tab)
		}
		if inoRatio > 0.5 {
			t.Errorf("%s: i-number ratio %v, want large win\n%s", row[0], inoRatio, tab)
		}
		if inoRatio >= dirRatio {
			t.Errorf("%s: i-number sort (%v) not better than dir sort (%v)\n%s", row[0], inoRatio, dirRatio, tab)
		}
	}
}

func TestFig6AgingShape(t *testing.T) {
	tab := Fig6(Fig6Config{Scale: QuickScale(), Epochs: 14, RefreshAt: 11, ReportEvery: 5})
	fresh := cellFloat(t, findRow(t, tab, "0")[3])
	aged := cellFloat(t, findRow(t, tab, "10")[3])
	refreshed := cellFloat(t, findRow(t, tab, "11")[3])
	if aged <= fresh {
		t.Errorf("aging did not degrade i-number ordering: %v -> %v\n%s", fresh, aged, tab)
	}
	if aged >= 1 {
		t.Errorf("aged i-number order %v, should still beat random\n%s", aged, tab)
	}
	if refreshed > fresh*1.5 {
		t.Errorf("refresh did not restore performance: fresh %v, refreshed %v\n%s", fresh, refreshed, tab)
	}
}

func TestFig7SortShape(t *testing.T) {
	sc := QuickScale()
	tab := Fig7(Fig7Config{Scale: sc, StaticPassMB: []float64{50, 150, 250}})
	small := cellFloat(t, tab.Rows[0][1])
	big := cellFloat(t, tab.Rows[2][1])
	macRow := tab.Rows[len(tab.Rows)-1]
	macTime := cellFloat(t, macRow[1])
	if big < small*1.5 {
		t.Errorf("oversized static pass %v not clearly slower than small %v\n%s", big, small, tab)
	}
	if macTime > big {
		t.Errorf("gb-fastsort %v slower than the thrashing static config %v\n%s", macTime, big, tab)
	}
	// MAC's probing may swap a little during contention, but orders of
	// magnitude less than the thrashing static configuration.
	macSwaps := cellFloat(t, macRow[7])
	bigSwaps := cellFloat(t, tab.Rows[2][7])
	if bigSwaps < 1000 {
		t.Errorf("oversized static config barely paged (%v swap-outs)\n%s", bigSwaps, tab)
	}
	if macSwaps > bigSwaps/20 {
		t.Errorf("gb-fastsort paged heavily: %v swap-outs vs static's %v\n%s", macSwaps, bigSwaps, tab)
	}
	if overhead := cellFloat(t, macRow[6]); overhead <= 0 {
		t.Errorf("gb-fastsort reports no overhead\n%s", tab)
	}
}

func TestMACAccuracyShape(t *testing.T) {
	tab := MACAccuracy(MACAccuracyConfig{Scale: QuickScale()})
	for _, row := range tab.Rows {
		avail := cellFloat(t, row[1])
		errMB := cellFloat(t, row[4])
		if errMB > avail*0.15 || errMB < -avail*0.3 {
			t.Errorf("MAC error %v MB of %v MB available\n%s", errMB, avail, tab)
		}
	}
}

func TestPriorArtSweepShapes(t *testing.T) {
	// Fairness near 1 across sender counts; implicit coscheduling's edge
	// grows with background load.
	cfg := priorart.DefaultTCPConfig()
	cfg.Senders = 4
	if f := tcpFairness(priorart.RunTCP(cfg)); f < 0.5 {
		t.Errorf("4-sender fairness = %v", f)
	}
	speedup := func(bg int) float64 {
		impl, block := coschedElapsed(bg)
		return float64(block) / float64(impl)
	}
	light, heavy := speedup(1), speedup(4)
	if heavy <= light {
		t.Errorf("coscheduling advantage did not grow with load: %v -> %v", light, heavy)
	}
	tab := PriorArtSweeps()
	if len(tab.Rows) != 11 {
		t.Errorf("sweep rows = %d", len(tab.Rows))
	}
}

func TestNoiseShape(t *testing.T) {
	tab := Noise(NoiseConfig{Scale: QuickScale(), Intensities: []float64{0, 1}, Workloads: []string{"scan", "hog"}})
	if len(tab.Rows) != 2 {
		t.Fatalf("noise rows = %d, want one per intensity", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Every ICL section must have been driven and scored — no "-"
		// placeholders in any column.
		for i, cell := range row {
			if cell == "-" {
				t.Errorf("intensity %s: column %q was not scored\n%s", row[0], tab.Columns[i], tab)
			}
		}
	}
	// Contention makes timed probes dearer: total probe time at
	// intensity 1 must exceed the quiescent baseline.
	if q, c := cellFloat(t, tab.Rows[0][7]), cellFloat(t, tab.Rows[1][7]); c <= q {
		t.Errorf("probe-ms did not grow under contention: %v -> %v\n%s", q, c, tab)
	}
}

func TestNoiseWorkloadSelection(t *testing.T) {
	if err := SetNoiseWorkloads([]string{"zipf", "web"}); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = SetNoiseWorkloads(nil) }()
	if got := NoiseWorkloads(); len(got) != 2 || got[0] != "zipf" || got[1] != "web" {
		t.Errorf("NoiseWorkloads() = %v after selection", got)
	}
	if err := SetNoiseWorkloads([]string{"bittorrent"}); err == nil {
		t.Error("unknown workload name accepted")
	}
	if err := SetNoiseWorkloads(nil); err != nil {
		t.Fatal(err)
	}
	if got := NoiseWorkloads(); len(got) != len(NoiseWorkloadNames()) {
		t.Errorf("NoiseWorkloads() = %v, want full default set", got)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Errorf("registry has %d entries", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
	}
	if ByID("fig5") == nil || ByID("nope") != nil {
		t.Error("ByID lookup broken")
	}
	// The harness may resolve ids concurrently, and returned Runners are
	// private copies.
	ForEachTrial(16, func(i int) {
		r := ByID(all[i%len(all)].ID)
		if r == nil || r.Run == nil {
			t.Errorf("concurrent ByID lookup %d failed", i)
		}
	})
	if a, b := ByID("fig5"), ByID("fig5"); a == b {
		t.Error("ByID returned a shared pointer; callers could alias each other's Runner")
	}
}

// TestMacAccuracyPointDrainsHog: a mac-accuracy point must return with
// every simulated process finished. A hog left parked on its pending
// wake keeps its goroutine, and through it the whole machine, reachable.
func TestMacAccuracyPointDrainsHog(t *testing.T) {
	before := runtime.NumGoroutine()
	macAccuracyPoint(QuickScale(), 0.5, 8000)
	// A finished process's goroutine exits just after handing control
	// back to the engine, so give it a moment.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the point, %d before: a process is still parked", n, before)
	}
}
