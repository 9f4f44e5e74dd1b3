package table

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Row is the machine-readable form of one table row: the flattened record
// amacbench -json emits, one JSON object per line, so experiment results
// can be recorded as BENCH_*.json trajectories and diffed across commits.
// NaN cells (rendered "-" in text tables) become JSON nulls.
type Row struct {
	// Experiment is the registered experiment id that produced the table.
	Experiment string `json:"experiment"`
	// Table is the table id (an experiment may emit several, e.g. fig6a-c).
	Table string `json:"table"`
	// Title and Unit mirror the table header.
	Title string `json:"title,omitempty"`
	Unit  string `json:"unit,omitempty"`
	// Row is the row label; Values maps column label to cell value.
	Row    string              `json:"row"`
	Values map[string]*float64 `json:"values"`
}

// Rows flattens the table into one Row per table row.
func (t *Table) Rows(experiment string) []Row {
	out := make([]Row, 0, len(t.RowLabels))
	for i, r := range t.RowLabels {
		vals := make(map[string]*float64, len(t.ColLabels))
		for j, c := range t.ColLabels {
			v := t.Values[i][j]
			if math.IsNaN(v) {
				vals[c] = nil
				continue
			}
			vv := v
			vals[c] = &vv
		}
		out = append(out, Row{
			Experiment: experiment,
			Table:      t.ID,
			Title:      t.Title,
			Unit:       t.Unit,
			Row:        r,
			Values:     vals,
		})
	}
	return out
}

// WriteJSONRows emits every row of every table as one JSON object per line
// (JSON Lines), the format behind amacbench -json.
func WriteJSONRows(w io.Writer, experiment string, tables []*Table) error {
	enc := json.NewEncoder(w)
	for _, t := range tables {
		for _, row := range t.Rows(experiment) {
			if err := enc.Encode(row); err != nil {
				return fmt.Errorf("table: encoding %s/%s row %q: %w", experiment, t.ID, row.Row, err)
			}
		}
	}
	return nil
}
