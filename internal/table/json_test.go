package table

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func jsonFixture() *Table {
	t := New("fig0", "JSON fixture", "cycles/tuple", []string{"row-a", "row-b"}, []string{"Baseline", "AMAC"})
	t.Set("row-a", "Baseline", 123.5)
	t.Set("row-a", "AMAC", 41.25)
	t.Set("row-b", "Baseline", math.NaN()) // rendered "-" in text, null in JSON
	t.Set("row-b", "AMAC", 0)
	t.AddNote("scale note")
	return t
}

// TestJSONRowsRoundTrip proves the -json output is machine-readable: every
// emitted line decodes with encoding/json back into a Row carrying exactly
// the table's values (NaN as null).
func TestJSONRowsRoundTrip(t *testing.T) {
	table := jsonFixture()
	var buf bytes.Buffer
	if err := WriteJSONRows(&buf, "exp0", []*Table{table}); err != nil {
		t.Fatal(err)
	}

	var rows []Row
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var r Row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %q does not decode: %v", sc.Text(), err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(rows) != len(table.RowLabels) {
		t.Fatalf("decoded %d rows, want %d", len(rows), len(table.RowLabels))
	}
	for i, r := range rows {
		if r.Experiment != "exp0" || r.Table != "fig0" || r.Unit != "cycles/tuple" {
			t.Fatalf("row %d metadata wrong: %+v", i, r)
		}
		if r.Row != table.RowLabels[i] {
			t.Fatalf("row %d label %q, want %q", i, r.Row, table.RowLabels[i])
		}
		for j, col := range table.ColLabels {
			want := table.Values[i][j]
			got, ok := r.Values[col]
			if !ok {
				t.Fatalf("row %q missing column %q", r.Row, col)
			}
			if math.IsNaN(want) {
				if got != nil {
					t.Fatalf("NaN cell %q/%q must decode as null, got %v", r.Row, col, *got)
				}
				continue
			}
			if got == nil || *got != want {
				t.Fatalf("cell %q/%q = %v, want %v", r.Row, col, got, want)
			}
		}
	}
}

// TestJSONRowsReencode checks the decoded rows re-marshal without loss, so a
// recorded BENCH_*.json trajectory can itself be processed and re-emitted.
func TestJSONRowsReencode(t *testing.T) {
	table := jsonFixture()
	var buf bytes.Buffer
	if err := WriteJSONRows(&buf, "exp0", []*Table{table}); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var r Row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if again.String() != first {
		t.Fatalf("re-encoded stream differs:\n%s\nvs\n%s", again.String(), first)
	}
}
