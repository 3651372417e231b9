// Package experiments contains one harness per table and figure of the
// paper's evaluation (Tables 1-2, Figures 1-7, and the Section 4.3.3 MAC
// accuracy validation). Each harness builds the workload the paper
// describes, runs it on the simulated platform(s), and returns a Table
// whose rows correspond to the points/bars the paper plots.
//
// Every harness accepts a Scale so the same code serves both the
// full-size reproduction (cmd/gb-experiments, EXPERIMENTS.md) and the
// fast scaled-down variants used by tests and benchmarks.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "*%s*\n", n)
		}
	}
	return b.String()
}

// Scale selects experiment sizing.
type Scale struct {
	// MemoryMB is the machine's physical memory (kernel reserve scales
	// with it in the harnesses).
	MemoryMB int
	// Trials is the number of repetitions averaged per data point (the
	// paper uses 30).
	Trials int
	// Name labels the scale in output.
	Name string
}

// FullScale reproduces the paper's 896 MB machine. Points use fewer
// trials than the paper's 30 because the simulator is deterministic up
// to seeding.
func FullScale() Scale { return Scale{MemoryMB: 896, Trials: 5, Name: "full"} }

// QuickScale is a 64 MB machine for tests and benchmarks; every workload
// dimension shrinks by the same ~14x factor so shapes are preserved.
func QuickScale() Scale { return Scale{MemoryMB: 64, Trials: 3, Name: "quick"} }

// factor returns the ratio of this scale to the paper's machine, used to
// shrink file sizes proportionally.
func (s Scale) factor() float64 { return float64(s.MemoryMB) / 896.0 }

// mb scales a paper-sized megabyte figure, keeping at least 1 MB.
func (s Scale) mb(paperMB float64) int64 {
	v := int64(paperMB * s.factor())
	if v < 1 {
		v = 1
	}
	return v
}

// bytes scales a paper-sized megabyte figure to bytes without the 1 MB
// floor (for sub-MB units at small scales), rounded up to a page.
func (s Scale) bytes(paperMB float64, pageSize int) int64 {
	v := int64(paperMB * s.factor() * (1 << 20))
	ps := int64(pageSize)
	if v < ps {
		v = ps
	}
	return (v + ps - 1) / ps * ps
}
