package experiments

import (
	"fmt"
	"slices"

	"graybox/internal/priorart"
	"graybox/internal/sim"
)

// PriorArtSweeps runs parameter sweeps over the three Table 1 systems,
// demonstrating that each mini-simulation behaves like the system it
// stands in for across a range, not just at one point:
//
//   - TCP: fairness and loss rate as the sender count grows.
//   - Implicit coscheduling: speedup over always-block as local load
//     grows.
//   - MS Manners: foreground protection across degradation thresholds.
func PriorArtSweeps() *Table {
	t := &Table{
		ID:      "priorart-sweeps",
		Title:   "Parameter sweeps over the Table 1 systems",
		Columns: []string{"system", "config", "metric", "value"},
	}

	// Every sweep point builds its own mini-simulation engine, so all
	// eleven run as independent trials, rows assembled in sweep order.
	senders := []int{1, 2, 4, 8}
	bgLoads := []int{0, 1, 2, 4}
	thresholds := []float64{0.5, 0.7, 0.9}
	points := make([]func() []string, 0, len(senders)+len(bgLoads)+len(thresholds))

	// TCP: sender scaling.
	for _, n := range senders {
		n := n
		points = append(points, func() []string {
			cfg := priorart.DefaultTCPConfig()
			cfg.Senders = n
			res := priorart.RunTCP(cfg)
			var total int64
			for _, d := range res.Delivered {
				total += d
			}
			return []string{"tcp", fmt.Sprintf("%d senders", n),
				"goodput/fairness/drops",
				fmt.Sprintf("%d pkts / %.2f / %d", total, tcpFairness(res), res.Drops)}
		})
	}

	// Implicit coscheduling: background load scaling.
	for _, bg := range bgLoads {
		bg := bg
		points = append(points, func() []string {
			impl, block := coschedElapsed(bg)
			return []string{"cosched", fmt.Sprintf("%d bg procs", bg),
				"implicit vs block",
				fmt.Sprintf("%v vs %v (%.1fx)", impl, block, float64(block)/float64(impl))}
		})
	}

	// MS Manners: threshold sweep.
	for _, thr := range thresholds {
		thr := thr
		points = append(points, func() []string {
			cfg := priorart.DefaultMannersConfig()
			cfg.DegradeThreshold = thr
			res := priorart.RunManners(cfg)
			return []string{"manners", fmt.Sprintf("threshold %.1f", thr),
				"fg steps / bg steps / suspensions",
				fmt.Sprintf("%d / %d / %d", res.ForegroundSteps, res.BackgroundSteps, res.Suspensions)}
		})
	}

	for _, row := range RunTrials(len(points), func(i int) []string { return points[i]() }) {
		t.AddRow(row...)
	}
	t.AddNote("expect: TCP fairness stays near 1 as senders scale; implicit coscheduling's advantage grows with load; higher Manners thresholds suspend more and protect the foreground more")
	return t
}

// coschedElapsed runs the coscheduled job beside bg background processes,
// once with implicit coscheduling and once always blocking, and returns
// the two elapsed times.
func coschedElapsed(bg int) (implicit, block sim.Time) {
	cfg := priorart.DefaultCoschedConfig()
	cfg.Background = bg
	implicit = priorart.RunCosched(cfg).Elapsed
	cfg.Implicit = false
	block = priorart.RunCosched(cfg).Elapsed
	return implicit, block
}

// tcpFairness is the ratio of the fewest to the most packets any one
// sender delivered: 1 is perfectly fair, and it is 0 when none delivered.
func tcpFairness(res priorart.TCPResult) float64 {
	most := slices.Max(res.Delivered)
	if most == 0 {
		return 0
	}
	return float64(slices.Min(res.Delivered)) / float64(most)
}
