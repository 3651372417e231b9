package experiments

// Runner produces one experiment's table at a given scale.
type Runner struct {
	ID    string
	Title string
	Run   func(sc Scale) *Table
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Techniques in existing gray-box systems", func(sc Scale) *Table {
			return Table1()
		}},
		{"table2", "Techniques in the case studies", func(sc Scale) *Table {
			return Table2()
		}},
		{"fig1", "Probe correlation", func(sc Scale) *Table {
			return Fig1(Fig1Config{Scale: sc})
		}},
		{"fig2", "Single-file scan", func(sc Scale) *Table {
			return Fig2(Fig2Config{Scale: sc})
		}},
		{"fig3", "Application performance (grep, fastsort)", func(sc Scale) *Table {
			return Fig3(Fig3Config{Scale: sc})
		}},
		{"fig4", "Multi-platform scan and search", func(sc Scale) *Table {
			return Fig4(Fig4Config{Scale: sc})
		}},
		{"fig5", "File ordering matters", func(sc Scale) *Table {
			return Fig5(Fig5Config{Scale: sc})
		}},
		{"fig6", "Aging and refresh", func(sc Scale) *Table {
			return Fig6(Fig6Config{Scale: sc})
		}},
		{"fig7", "Competing sorts with MAC", func(sc Scale) *Table {
			return Fig7(Fig7Config{Scale: sc})
		}},
		{"mac-accuracy", "MAC accuracy sweep", func(sc Scale) *Table {
			return MACAccuracy(MACAccuracyConfig{Scale: sc})
		}},
		{"priorart-sweeps", "Parameter sweeps over Table 1 systems", func(sc Scale) *Table {
			return PriorArtSweeps()
		}},
		{"noise", "ICL accuracy under competing workload traffic", func(sc Scale) *Table {
			return Noise(NoiseConfig{Scale: sc})
		}},
		{"stash", "Second-level stash tier: gray-box vs naive admission", func(sc Scale) *Table {
			return Stash(StashConfig{Scale: sc})
		}},
		{"slo", "SLO violations under load: gray-box vs naive admission", func(sc Scale) *Table {
			return Slo(SloConfig{Scale: sc})
		}},
	}
}

// ByID returns a private copy of the runner with the given ID, or nil.
// It is safe for concurrent use.
func ByID(id string) *Runner {
	for _, r := range All() {
		if r.ID == id {
			return &r
		}
	}
	return nil
}
