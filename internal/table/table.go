// Package table holds the result-table representation shared by the
// experiment harness, the amacbench command and the benchmark suite: a named
// grid of numeric values (rows = workload points, columns = techniques or
// sweep parameters) with enough metadata to render the same rows and series
// that the paper's tables and figures report.
package table

import (
	"fmt"
	"io"
	"strings"
)

// Table is one reproduced artifact (a paper table, or one data series grid
// behind a paper figure).
type Table struct {
	// ID is the experiment identifier ("fig5a", "table3", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Unit is the unit of every value ("cycles/tuple", "M tuples/s", ...).
	Unit string
	// RowLabels and ColLabels name the grid axes.
	RowLabels []string
	ColLabels []string
	// Values is indexed [row][col]. NaN is rendered as "-".
	Values [][]float64
	// Notes carries free-form remarks (scale used, substitutions, ...).
	Notes []string
}

// New creates an empty table with the given axes, initialised to zero.
func New(id, title, unit string, rows, cols []string) *Table {
	values := make([][]float64, len(rows))
	for i := range values {
		values[i] = make([]float64, len(cols))
	}
	return &Table{
		ID:        id,
		Title:     title,
		Unit:      unit,
		RowLabels: append([]string(nil), rows...),
		ColLabels: append([]string(nil), cols...),
		Values:    values,
	}
}

// Set stores a value by label; it panics on unknown labels, which are
// programming errors in the experiment definitions.
func (t *Table) Set(row, col string, v float64) {
	t.Values[t.rowIndex(row)][t.colIndex(col)] = v
}

// Get returns a value by label.
func (t *Table) Get(row, col string) float64 {
	return t.Values[t.rowIndex(row)][t.colIndex(col)]
}

func (t *Table) rowIndex(label string) int {
	for i, l := range t.RowLabels {
		if l == label {
			return i
		}
	}
	panic(fmt.Sprintf("table: table %s has no row %q", t.ID, label))
}

func (t *Table) colIndex(label string) int {
	for i, l := range t.ColLabels {
		if l == label {
			return i
		}
	}
	panic(fmt.Sprintf("table: table %s has no column %q", t.ID, label))
}

// AddNote appends a remark rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, " [%s]", t.Unit)
	}
	fmt.Fprintln(w)

	width := 12
	for _, l := range append(append([]string{}, t.RowLabels...), t.ColLabels...) {
		if len(l)+2 > width {
			width = len(l) + 2
		}
	}
	cell := func(s string) string { return fmt.Sprintf("%*s", width, s) }

	fmt.Fprint(w, cell(""))
	for _, c := range t.ColLabels {
		fmt.Fprint(w, cell(c))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, cell(""))
	fmt.Fprintln(w, strings.Repeat("-", width*len(t.ColLabels)))

	for i, r := range t.RowLabels {
		fmt.Fprint(w, cell(r))
		for j := range t.ColLabels {
			fmt.Fprint(w, cell(formatValue(t.Values[i][j])))
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case v != v: // NaN
		return "-"
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
