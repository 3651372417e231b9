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
// gb-experiments prints them, and the SHA-256 of each experiment's
// trace, metrics JSON and audit JSON exports.
const (
	quickTablesPath  = "testdata/quick_tables.txt"
	quickExportsPath = "testdata/quick_exports.sum"
)

// TestQuickSuiteGolden runs every registered experiment once at
// QuickScale with telemetry and audit on, and compares its output with
// the committed reference. After each experiment it drains and labels
// that experiment's registries and auditors as gb-experiments does, so
// an experiment's digests are those of its exports from a CLI run of
// that experiment alone. -update rewrites both files.
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
	TakeTelemetry() // drain whatever earlier tests accumulated
	TakeAudits()
	defer TakeVirtualTime() // drop the platforms this suite built

	var tables, sums strings.Builder
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			fmt.Fprintln(&tables, r.Run(QuickScale()))
			regs := TakeTelemetry()
			for _, reg := range regs {
				reg.SetLabel(r.ID + " | " + reg.Label())
			}
			auds := TakeAudits()
			for _, aud := range auds {
				aud.SetLabel(r.ID + " | " + aud.Label())
			}
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
		})
	}
	checkFile(t, quickTablesPath, tables.String())
	checkFile(t, quickExportsPath, sums.String())
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
