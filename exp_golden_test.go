package amac_test

// Experiment-output golden: every registered experiment at tiny scale must
// reproduce testdata/exp_tiny.json byte for byte. The file is exactly what
//
//	amacbench -exp all -scale tiny -parallel 1 -json
//
// prints on stdout, so it pins the figures and tables the paper comparison
// rests on, including sweep shapes the per-run goldens in golden_test.go do
// not reach (an engine's end-of-run behaviour shows up here as a one-cycle
// shift long before it moves any single golden run). Regenerate it only when
// the model deliberately changes:
//
//	go test -run TestExperimentOutputGolden -update-golden
//
// (the -update-golden flag is shared with TestGoldenStats).

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"amac"
	"amac/internal/table"
)

const expGoldenPath = "testdata/exp_tiny.json"

// experimentOutput renders every experiment the way amacbench -json does,
// at the CLI's default seed.
func experimentOutput(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, d := range amac.Experiments() {
		tables, err := amac.RunExperiment(d.ID, amac.ExperimentConfig{Scale: amac.TinyScale, Seed: 42, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		if err := table.WriteJSONRows(&buf, d.ID, tables); err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
	}
	return buf.Bytes()
}

func TestExperimentOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at tiny scale")
	}
	got := experimentOutput(t)
	if *updateGolden {
		if err := os.WriteFile(expGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", expGoldenPath)
		return
	}
	want, err := os.ReadFile(expGoldenPath)
	if err != nil {
		t.Fatalf("missing experiment golden (run with -update-golden to create): %v", err)
	}
	if diff := lineDiff(string(want), string(got), 10); diff != "" {
		t.Fatalf("experiment output differs from %s:\n%s", expGoldenPath, diff)
	}
}

// lineDiff lists up to max differing rows of two JSON Lines documents, each
// as a want/got pair, plus a count of the rest; "" means identical.
func lineDiff(want, got string, max int) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var b strings.Builder
	shown, total := 0, 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		total++
		if shown < max {
			shown++
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, w, g)
		}
	}
	if total > shown {
		fmt.Fprintf(&b, "... and %d more differing lines\n", total-shown)
	}
	return b.String()
}
