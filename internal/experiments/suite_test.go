package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"graybox/internal/audit"
	"graybox/internal/telemetry"
)

// The quick suite's committed reference: its tables, concatenated as
// gb-experiments prints them, the SHA-256 of each experiment's trace,
// metrics JSON and audit JSON exports, and each experiment's ICL
// accuracy as the audit oracle scores it.
const (
	quickTablesPath   = "testdata/quick_tables.txt"
	quickExportsPath  = "testdata/quick_exports.sum"
	quickAccuracyPath = "testdata/quick_accuracy.txt"
)

// TestQuickSuiteGolden runs every registered experiment once at
// QuickScale with telemetry and audit on, and compares its output with
// the committed reference. After each experiment it drains that
// experiment's registries and auditors with the drain gb-experiments
// uses, so an experiment's digests are those of its exports from a CLI
// run of that experiment alone. -update rewrites all three files.
func TestQuickSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	EnableTelemetry(true)
	EnableAudit(true)
	defer func() {
		EnableTelemetry(false)
		EnableAudit(false)
	}()
	Drain("") // drop whatever earlier tests accumulated

	var tables, sums, accuracy strings.Builder
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			fmt.Fprintln(&tables, r.Run(QuickScale()))
			_, regs, auds := Drain(r.ID)
			exports := []struct {
				name  string
				write func(io.Writer) error
			}{
				{"trace", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, regs) }},
				{"metrics", func(w io.Writer) error { return telemetry.WriteMetricsJSON(w, regs) }},
				{"audit", func(w io.Writer) error { return audit.WriteJSON(w, auds) }},
			}
			for _, e := range exports {
				h := sha256.New() // the trace runs to megabytes: stream it
				if err := e.write(h); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sums, "%x  %s.%s\n", h.Sum(nil), r.ID, e.name)
			}
			accuracy.WriteString(accuracyLines(r.ID, auds))
		})
	}
	checkFile(t, quickTablesPath, tables.String())
	checkFile(t, quickExportsPath, sums.String())
	checkFile(t, quickAccuracyPath, accuracy.String())
}

// accuracyLines prints one line per ICL that experiment id's platforms
// exercised. Each line scores the raw counts of the platforms' audit
// reports summed over the platforms: FCCD's confusion matrix, FLDC's
// concordant and discordant pairs, MAC's relative error weighted by
// calls, and the stash's wasted admissions.
func accuracyLines(id string, auds []*audit.Auditor) string {
	var (
		fccd                       audit.Confusion
		conc, disc, pairs          int64
		macCalls                   int64
		macRelErr                  float64 // summed over calls
		admits, wasted             int64
		hasFCCD, hasFLDC, hasStash bool
	)
	for _, a := range auds {
		r := a.Report()
		if f := r.FCCD; f != nil {
			hasFCCD = true
			fccd.TP += f.Confusion.TP
			fccd.FP += f.Confusion.FP
			fccd.TN += f.Confusion.TN
			fccd.FN += f.Confusion.FN
		}
		if f := r.FLDC; f != nil {
			hasFLDC = true
			conc, disc, pairs = conc+f.Concordant, disc+f.Discordant, pairs+f.Pairs
		}
		if m := r.MAC; m != nil {
			macCalls += m.Calls
			macRelErr += m.MeanRelErr * float64(m.Calls)
		}
		if st := r.Stash; st != nil {
			hasStash = true
			admits, wasted = admits+st.Admits, wasted+st.Wasted
		}
	}
	var b strings.Builder
	if hasFCCD {
		fmt.Fprintf(&b, "%-16s fccd  units=%d accuracy=%.4f precision=%.4f recall=%.4f\n",
			id, fccd.Total(), fccd.Accuracy(), fccd.Precision(), fccd.Recall())
	}
	if hasFLDC {
		tau := 1.0 // no pair to misorder, as the audit report scores it
		if pairs > 0 {
			tau = float64(conc-disc) / float64(pairs)
		}
		fmt.Fprintf(&b, "%-16s fldc  pairs=%d kendall_tau=%.4f\n", id, pairs, tau)
	}
	if macCalls > 0 {
		fmt.Fprintf(&b, "%-16s mac   calls=%d mean_rel_err=%.4f\n", id, macCalls, macRelErr/float64(macCalls))
	}
	if hasStash {
		rate := 0.0
		if admits > 0 {
			rate = float64(wasted) / float64(admits)
		}
		fmt.Fprintf(&b, "%-16s stash admits=%d wasted_rate=%.4f\n", id, admits, rate)
	}
	return b.String()
}

var update = flag.Bool("update", false, "rewrite the committed golden files in testdata from this run's output")

// checkFile compares got with the committed file at path, reporting the
// first lines that differ, or rewrites the file under -update.
func checkFile(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	const maxShown = 8
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(wl), len(gl)) && shown < maxShown; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, w, g)
			shown++
		}
	}
	t.Errorf("output differs from %s (review the change, then rerun with -update); first differing lines:\n%s", path, b.String())
}
