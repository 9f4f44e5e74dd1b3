package experiments

// Shape and wiring tests for the pipeN streaming-pipeline experiment. The
// acceptance properties run on the scaled hierarchy (see shapes_test.go):
// the build tables overflow the 256 KB LLC while the mixed chain plan's
// dimension table stays cache-resident, reproducing the regime split the
// mini-planner exists for.

import (
	"maps"
	"strings"
	"testing"

	"amac/internal/adapt"
	"amac/internal/ops"
	"amac/internal/pipeline"
)

// shapePipeSizes keeps the decisive proportions at test speed: 2^15-key
// build tables (~1.5 MB with buckets) against a 256 KB LLC, a 2^8-key
// dimension table that fits in L1/L2 and is covered twice by the sample's
// warm half (512 rows).
func shapePipeSizes() pipeSizes {
	return pipeSizes{rows: 1 << 13, build: 1 << 15, dim: 1 << 8, bst: 1 << 9, groups: 256, sample: 1 << 10}
}

func shapePipePlans() []pipePlan {
	return pipePlans(scaledXeon(), shapePipeSizes(), 99, adapt.Config{SegmentLookups: 1024, ProbeLookups: 128})
}

// TestShapePipelinePlanner is the pipeN acceptance bar: on the steady plans
// the mini-planner's assignment lands within 5% of the best exhaustively
// swept static per-stage assignment, and on the mixed plan (DRAM joins
// around a cache-resident dimension join) it beats every uniform-technique
// assignment.
func TestShapePipelinePlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline shape tests take a few seconds")
	}
	for _, p := range shapePipePlans() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			combos := pipeCombos(p.stages, 10)
			best, bestUniform := 0.0, 0.0
			bestLabel := ""
			for _, cc := range combos {
				v := p.run(defaultEnv, cc).cyclesPerRow()
				if best == 0 || v < best {
					best, bestLabel = v, pipeComboLabel(cc)
				}
				if _, ok := uniformTech(cc); ok && (bestUniform == 0 || v < bestUniform) {
					bestUniform = v
				}
			}
			choice := p.choice(defaultEnv)
			planner := p.run(defaultEnv, choice.Configs).cyclesPerRow()
			t.Logf("best static %s = %.1f cy/row, best uniform = %.1f, planner %s = %.1f",
				bestLabel, best, bestUniform, defaultEnv.planChoiceLabel(p), planner)
			if planner > 1.05*best {
				t.Errorf("planner (%.1f cy/row, %s) more than 5%% behind best static %s (%.1f)",
					planner, defaultEnv.planChoiceLabel(p), bestLabel, best)
			}
			if p.mixed && planner >= bestUniform {
				t.Errorf("mixed plan: planner (%.1f cy/row, %s) must beat every uniform assignment (best uniform %.1f)",
					planner, defaultEnv.planChoiceLabel(p), bestUniform)
			}
		})
	}
}

// TestShapePipelineAdaptive: per-stage adaptive execution stays in the same
// league as the planner on every plan — within 25% of the best static
// assignment (it pays online probe epochs the planner pays off-path).
func TestShapePipelineAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline shape tests take a few seconds")
	}
	for _, p := range shapePipePlans() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			uniformBest := 0.0
			for _, tech := range ops.Techniques {
				cfgs := make([]pipeline.StageConfig, p.stages)
				for i := range cfgs {
					cfgs[i] = pipeline.StageConfig{Tech: tech, Window: 10}
				}
				if v := p.run(defaultEnv, cfgs).cyclesPerRow(); uniformBest == 0 || v < uniformBest {
					uniformBest = v
				}
			}
			ad := p.adaptive(defaultEnv).cyclesPerRow()
			t.Logf("adaptive = %.1f cy/row, best uniform = %.1f", ad, uniformBest)
			if ad > 1.25*uniformBest {
				t.Errorf("adaptive (%.1f cy/row) more than 25%% behind the best uniform assignment (%.1f)", ad, uniformBest)
			}
		})
	}
}

// TestPipeExperimentDeterministicCells: repeated runs of the same pipeN cell
// — including the fresh-arena-per-cell charged-build plan — produce
// identical cycle counts, the invariant the parallel sweep relies on.
func TestPipeExperimentDeterministicCells(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline shape tests take a few seconds")
	}
	for _, p := range shapePipePlans() {
		cfgs := make([]pipeline.StageConfig, p.stages)
		for i := range cfgs {
			cfgs[i] = pipeline.StageConfig{Tech: ops.AMAC, Window: 10}
		}
		first := p.run(defaultEnv, cfgs)
		again := p.run(defaultEnv, cfgs)
		if first != again {
			t.Errorf("%s: repeated cell differs: %+v vs %+v", p.name, first, again)
		}
		c1 := p.choice(defaultEnv)
		c2 := p.choice(defaultEnv)
		if c1.PlanCycles != c2.PlanCycles || len(c1.Configs) != len(c2.Configs) {
			t.Errorf("%s: cached plan choice not stable: %v vs %v", p.name, c1, c2)
		}
	}
}

// TestPipeCombos: the exhaustive enumeration covers 4^stages assignments,
// each exactly once, with every uniform assignment present.
func TestPipeCombos(t *testing.T) {
	combos := pipeCombos(3, 10)
	if len(combos) != 64 {
		t.Fatalf("3-stage enumeration has %d combos, want 64", len(combos))
	}
	seen := map[string]bool{}
	uniforms := 0
	for _, cc := range combos {
		l := pipeComboLabel(cc)
		if seen[l] {
			t.Fatalf("combo %s enumerated twice", l)
		}
		seen[l] = true
		if _, ok := uniformTech(cc); ok {
			uniforms++
		}
	}
	if uniforms != len(ops.Techniques) {
		t.Fatalf("%d uniform combos, want %d", uniforms, len(ops.Techniques))
	}
}

// FuzzValidatePipePlans: the -plans filter parser never panics, accepts a
// filter exactly when it is empty or every comma-separated token is
// non-empty after trimming and matches a substring of some plan name
// case-insensitively, and selects exactly the plans some token matches — at
// least one for every accepted non-empty filter.
func FuzzValidatePipePlans(f *testing.F) {
	for _, seed := range []string{
		"", "mixed", "BST", "agg, chain", "probe→BST filter (steady)",
		"mixed,nosuchplan", "mixed,,agg", ",", " , ", "  mixed  ", "→",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, filter string) {
		sel, err := selectPipePlans(filter)
		if (err == nil) != (ValidatePipePlans(filter) == nil) {
			t.Fatalf("%q: selectPipePlans and ValidatePipePlans disagree", filter)
		}
		if filter == "" {
			if err != nil || sel != nil {
				t.Fatalf("empty filter: selection %v, err %v; want every plan", sel, err)
			}
			return
		}
		want := map[string]bool{}
		valid := true
		for _, tok := range strings.Split(filter, ",") {
			tok = strings.ToLower(strings.TrimSpace(tok))
			matched := false
			for _, name := range pipePlanNames {
				if tok != "" && strings.Contains(strings.ToLower(name), tok) {
					want[name] = true
					matched = true
				}
			}
			valid = valid && matched
		}
		if valid != (err == nil) {
			t.Fatalf("%q: accepted = %v (err %v), want %v", filter, err == nil, err, valid)
		}
		if err != nil {
			return
		}
		if len(sel) == 0 {
			t.Fatalf("%q: accepted but selects no plan", filter)
		}
		if !maps.Equal(sel, want) {
			t.Fatalf("%q: selects %v, want %v", filter, sel, want)
		}
	})
}
