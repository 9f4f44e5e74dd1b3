package experiments

// Experiment-output golden: every registered experiment at tiny scale must
// reproduce the repository's testdata/exp_tiny.json byte for byte. The file
// is exactly what
//
//	amacbench -exp all -scale tiny -parallel 1 -json
//
// prints on stdout, so it pins the figures and tables the paper comparison
// rests on, including sweep shapes the per-run goldens in the root
// package's golden_test.go do not reach (an engine's end-of-run behaviour shows up here as a one-cycle
// shift long before it moves any single golden run). Regenerate it only when
// the model deliberately changes:
//
//	go test -run TestExperimentOutputGolden -update-golden ./internal/experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"amac/internal/table"
)

const expGoldenPath = "../../testdata/exp_tiny.json"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+expGoldenPath+" from the current experiments")

// experimentOutput renders every experiment the way amacbench -json does,
// at the CLI's default seed.
func experimentOutput(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, d := range Registry() {
		tables, err := Run(d.ID, Config{Scale: Tiny, Seed: 42, Parallel: 1})
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

// BenchmarkExperiment regenerates every registered experiment, one
// sub-benchmark per id, at smoke scale through the same code path as
// `amacbench -exp <id>`. Use `go run ./cmd/amacbench -exp <id> -scale small`
// for report-quality numbers (EXPERIMENTS.md records those next to the
// paper's values).
func BenchmarkExperiment(b *testing.B) {
	for _, d := range Registry() {
		b.Run(d.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables, err := Run(d.ID, Config{Scale: Tiny, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 {
					b.Fatalf("%s produced no tables", d.ID)
				}
			}
		})
	}
}
