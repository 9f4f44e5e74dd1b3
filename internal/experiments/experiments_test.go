package experiments

import (
	"strings"
	"testing"

	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
)

// tinyCfg runs experiments at smoke-test scale: functional coverage of every
// experiment path, not performance shapes (those are asserted in
// shapes_test.go at a scale where the working sets exceed the LLC).
func tinyCfg() Config { return Config{Scale: Tiny, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	// Every artifact of the paper's evaluation must be registered.
	want := []string{
		"fig3", "table3", "fig5a", "fig5b", "fig6", "fig7", "fig8", "table4",
		"fig9", "fig10", "fig11", "fig12a", "fig12b", "fig13",
		"abl-inflight", "abl-refill", "abl-mshr", "scaleN",
		"serveN", "adaptN", "pipeN",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q is not registered", id)
		}
	}
	if len(Registry()) < len(want) {
		t.Fatalf("registry has %d entries, want at least %d", len(Registry()), len(want))
	}
	for _, d := range Registry() {
		if d.Title == "" || d.Run == nil {
			t.Fatalf("descriptor %q incomplete", d.ID)
		}
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("nope"); ok {
		t.Fatal("unknown id should not be found")
	}
	if _, err := Run("nope", tinyCfg()); err == nil {
		t.Fatal("running an unknown id should fail")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"tiny", "small", "paper"} {
		if _, err := ParseScale(s); err != nil {
			t.Fatalf("ParseScale(%q): %v", s, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

// FuzzParseScale: any name either fails to parse or is one of the three
// scales, unchanged.
func FuzzParseScale(f *testing.F) {
	for _, seed := range []string{"tiny", "small", "paper", "", "Tiny", " small", "huge"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		sc, err := ParseScale(name)
		if err != nil {
			return
		}
		if string(sc) != name || (sc != Tiny && sc != Small && sc != Paper) {
			t.Fatalf("ParseScale(%q) = %q", name, sc)
		}
	})
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.scale() != Small || c.seed() == 0 || c.window() != 10 {
		t.Fatalf("defaults wrong: %v %v %v", c.scale(), c.seed(), c.window())
	}
	if got := c.workerCounts(); len(got) != 5 || got[0] != 1 || got[4] != 16 {
		t.Fatalf("default worker sweep wrong: %v", got)
	}
	if got := (Config{Workers: 6}).workerCounts(); len(got) != 4 || got[3] != 6 {
		t.Fatalf("capped worker sweep wrong: %v", got)
	}
	if got := (Config{Workers: 4}).workerCounts(); len(got) != 3 || got[2] != 4 {
		t.Fatalf("power-of-two cap should not duplicate: %v", got)
	}
	if len(Config{Scale: Paper}.sizes().bstSizes) == 0 {
		t.Fatal("paper scale must define BST sizes")
	}
}

// TestEveryExperimentRunsAtTinyScale executes the full registry at smoke
// scale and sanity-checks the produced tables.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale sweep still takes a few seconds")
	}
	for _, d := range Registry() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			tables := d.Run(tinyCfg())
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			for _, tab := range tables {
				if tab.ID == "" || len(tab.RowLabels) == 0 || len(tab.ColLabels) == 0 {
					t.Fatalf("table %q malformed", tab.ID)
				}
				if !strings.HasPrefix(tab.ID, d.ID) {
					t.Fatalf("table id %q does not extend experiment id %q", tab.ID, d.ID)
				}
				positive := 0
				for i := range tab.Values {
					if len(tab.Values[i]) != len(tab.ColLabels) {
						t.Fatalf("table %q row %d has %d values, want %d", tab.ID, i, len(tab.Values[i]), len(tab.ColLabels))
					}
					for _, v := range tab.Values[i] {
						if v < 0 || v != v {
							t.Fatalf("table %q contains invalid value %v", tab.ID, v)
						}
						if v > 0 {
							positive++
						}
					}
				}
				if positive == 0 {
					t.Fatalf("table %q contains no positive measurements", tab.ID)
				}
				if tab.String() == "" {
					t.Fatalf("table %q renders empty", tab.ID)
				}
			}
		})
	}
}

func TestPhaseResultDerivedMetrics(t *testing.T) {
	var zero phaseResult
	if zero.cyclesPerTuple() != 0 || zero.instrPerTuple() != 0 || zero.throughputMTuplesPerSec(1e9, 4) != 0 {
		t.Fatal("zero phase should produce zero metrics")
	}
	r := phaseResult{cycles: 1000, tuples: 100}
	if r.cyclesPerTuple() != 10 {
		t.Fatalf("cyclesPerTuple = %v", r.cyclesPerTuple())
	}
	// 100 tuples in 1000 cycles at 1 GHz = 1 us -> 100 Mtuples/s per thread.
	if got := r.throughputMTuplesPerSec(1e9, 2); got != 200 {
		t.Fatalf("throughput = %v, want 200", got)
	}
}

func TestRunJoinDefensiveDefaults(t *testing.T) {
	sz := tinyCfg().sizes()
	res := runJoin(defaultEnv, joinConfig{
		machine: memsim.XeonX5670(),
		spec:    relation.JoinSpec{BuildSize: sz.joinSmall, ProbeSize: sz.joinSmall, Seed: 1},
		tech:    ops.AMAC,
	})
	if res.probe.cycles == 0 || res.probe.tuples == 0 {
		t.Fatal("probe phase not measured")
	}
	if res.probe.outputCount == 0 {
		t.Fatal("probe produced no output")
	}
}

func TestSkewLabelAndLog2(t *testing.T) {
	if skewLabel(0.5, 0) != "[0.5, 0]" {
		t.Fatalf("skewLabel = %q", skewLabel(0.5, 0))
	}
	if log2(1) != 0 || log2(2) != 1 || log2(1<<20) != 20 {
		t.Fatal("log2 wrong")
	}
	if itoa(0) != "0" || itoa(27) != "27" {
		t.Fatal("itoa wrong")
	}
}
