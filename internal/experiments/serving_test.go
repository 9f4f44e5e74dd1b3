package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"amac/internal/table"
)

func findTable(t *testing.T, tables []*table.Table, id string) *table.Table {
	t.Helper()
	for _, tb := range tables {
		if tb.ID == id {
			return tb
		}
	}
	t.Fatalf("no table %q in result", id)
	return nil
}

// TestServeNShapes asserts the serving experiment's decisive trend at smoke
// scale: near saturation (the 90% row) AMAC both sustains a higher achieved
// rate and holds a far lower p99 than the batch-boundary techniques,
// because its slots refill per completion rather than per batch.
func TestServeNShapes(t *testing.T) {
	cfg := Config{Scale: Tiny, Seed: 42, Workers: 2}
	tables, err := Run("serveN", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tput := findTable(t, tables, "serveN")
	p99 := findTable(t, tables, "serveN-p99")

	const nearSat = "90%"
	for _, other := range []string{"Baseline", "GP", "SPP"} {
		if a, o := tput.Get(nearSat, "AMAC"), tput.Get(nearSat, other); a < o {
			t.Errorf("near saturation AMAC throughput (%.1f) should be at least %s's (%.1f)", a, other, o)
		}
		if a, o := p99.Get(nearSat, "AMAC"), p99.Get(nearSat, other); a*2 > o {
			t.Errorf("near saturation AMAC p99 (%.1f kcycles) should be far below %s's (%.1f kcycles)", a, other, o)
		}
	}

	// At light load the open-loop property holds: every technique achieves
	// (close to) the offered rate, so the columns agree within 10%.
	light := tput.Get("30%", "AMAC")
	for _, other := range []string{"Baseline", "GP", "SPP"} {
		if o := tput.Get("30%", other); o < light*0.9 || o > light*1.1 {
			t.Errorf("at 30%% load %s throughput (%.1f) should match AMAC's (%.1f)", other, o, light)
		}
	}

	// Latency quantiles are ordered and positive.
	p50 := findTable(t, tables, "serveN-p50")
	for _, row := range p99.RowLabels {
		for _, col := range p99.ColLabels {
			lo, hi := p50.Get(row, col), p99.Get(row, col)
			if lo <= 0 || hi < lo {
				t.Errorf("%s/%s: p50 %.3f p99 %.3f must be positive and ordered", row, col, lo, hi)
			}
		}
	}
}

func TestServeNDropPolicy(t *testing.T) {
	cfg := Config{Scale: Tiny, Seed: 42, QueueCap: 16, Arrivals: "bursty"}
	tables, err := Run("serveN", cfg)
	if err != nil {
		t.Fatal(err)
	}
	drops := findTable(t, tables, "serveN-drops")
	for _, row := range drops.RowLabels {
		for _, col := range drops.ColLabels {
			if f := drops.Get(row, col); f < 0 || f > 1 {
				t.Errorf("%s/%s: drop fraction %f out of range", row, col, f)
			}
		}
	}
	// Under overload a bounded drop queue must reject some baseline traffic:
	// the baseline's capacity is a fraction of the offered 120% rate.
	if drops.Get("120%", "Baseline") == 0 {
		t.Error("overloaded baseline with a 16-deep drop queue should reject requests")
	}
	// And AMAC must drop less than the baseline at every load.
	for _, row := range drops.RowLabels {
		if a, b := drops.Get(row, "AMAC"), drops.Get(row, "Baseline"); a > b {
			t.Errorf("%s: AMAC drop fraction (%f) should not exceed the baseline's (%f)", row, a, b)
		}
	}
}

func TestServeNDeterministic(t *testing.T) {
	cfg := Config{Scale: Tiny, Seed: 7}
	a, err := Run("serveN", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("serveN", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for r := range a[i].Values {
			for c := range a[i].Values[r] {
				if a[i].Values[r][c] != b[i].Values[r][c] {
					t.Fatalf("table %s cell (%d,%d) differs across identical runs", a[i].ID, r, c)
				}
			}
		}
	}
}

// TestServeNWidthGauge: the metrics width gauge reports the engine's
// configured width on a static engine, which never resizes. serveN's
// designated cell is static AMAC at the default width of 10, so every
// sample of a metrics-only run must read 10.
func TestServeNWidthGauge(t *testing.T) {
	r := runWithSinks(t, "serveN", 1, UsesMetrics)
	var n int
	for _, line := range strings.Split(strings.TrimSpace(r.exports["jsonl"]), "\n") {
		var rec struct {
			Values map[string]float64 `json:"values"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		if w, ok := rec.Values["width"]; !ok || w != 10 {
			t.Fatalf("width sample = %v (present %v), want 10: %s", w, ok, line)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no metrics samples")
	}
}
