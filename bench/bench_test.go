package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSize keeps every workload's shape at a size the tests run quickly.
var testSize = sizes{
	joinBuild: 1 << 12, joinProbe: 1 << 11,
	groupBy:    1 << 12,
	serveBuild: 1 << 12, serveProbe: 1 << 11,
	chaosBuild: 1 << 11, chaosProbe: 1 << 11,
	pipeRows: 1 << 10, pipeBuild: 1 << 12, pipeDim: 64, pipeSample: 256,
}

func TestMain(m *testing.M) {
	size = testSize
	os.Exit(m.Run())
}

// definition reads the benchmark definition at the repository root.
func definition(t *testing.T) (workloadNames []string, e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, w := range def.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layers[m.Name] = m.Unit
	}
	return workloadNames, e2e, layers
}

// runTiny runs one workload with a single timed pass.
func runTiny(t *testing.T, wl workload, trace bool, dir string) report {
	t.Helper()
	rep, err := runWorkload(wl, runConfig{seed: 7, seconds: 1e-3, trace: trace, traceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", wl.name, rep.Failed, rep.Attempted, rep.Failures)
	}
	return rep
}

// checkEmitted asserts the report carries exactly the wanted metrics, each
// with its unit.
func checkEmitted(t *testing.T, rep report, want map[string]string) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", rep.Workload, len(rep.Metrics), len(want))
	}
	for _, m := range rep.Metrics {
		if unit, ok := want[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s: metric %s [%s] not in BENCHMARK.json with that unit (%q)", rep.Workload, m.Name, m.Unit, unit)
		}
	}
}

// TestBenchmarkDefinitionMatches runs every workload untraced twice and
// traced once. Every metric BENCHMARK.json lists is emitted with its unit,
// two invocations agree exactly on every simulated value and the digest,
// and the traced run's CPU profile folds to shares that sum to 100%.
func TestBenchmarkDefinitionMatches(t *testing.T) {
	names, e2e, layers := definition(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for i, name := range names {
		wl, ok := findWorkload(name)
		if !ok || workloads[i].name != name {
			t.Fatalf("workload %q of BENCHMARK.json is not the benchmark's workload %d", name, i)
		}
		first := runTiny(t, wl, false, "")
		checkEmitted(t, first, e2e)
		second := runTiny(t, wl, false, "")
		if first.SimDigest != second.SimDigest {
			t.Errorf("%s: sim_digest %s then %s", name, first.SimDigest, second.SimDigest)
		}
		for _, m := range first.Metrics {
			if !simulated(m.Name) {
				continue
			}
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want positive", name, m.Name, m.Value)
			}
			if again, _ := second.value(m.Name); again.Value != m.Value {
				t.Errorf("%s: %s = %v then %v", name, m.Name, m.Value, again.Value)
			}
		}

		traced := runTiny(t, wl, true, t.TempDir())
		checkEmitted(t, traced, layers)
		if traced.SimDigest != first.SimDigest {
			t.Errorf("%s: traced sim_digest %s, untraced %s", name, traced.SimDigest, first.SimDigest)
		}
		var share float64
		for _, m := range traced.Metrics {
			if strings.HasPrefix(m.Name, "host_share.") {
				share += m.Value
			}
		}
		if share != 0 && math.Abs(share-100) > 1e-6 {
			t.Errorf("%s: host_share sums to %v%%", name, share)
		}
	}
}

// TestWrongReferenceFails shows the checks are not vacuous: a wrong
// reference makes exactly the runs that compare against it fail.
func TestWrongReferenceFails(t *testing.T) {
	cases := []struct {
		workload string
		corrupt  func(instance)
		want     int
	}{
		// Every technique's output is compared with the reference join.
		{"join-dram", func(i instance) { i.(*joinDRAM).refSum++ }, 4},
		// Only the clean row's output is; faulted rows check accounting.
		{"serve-chaos", func(i instance) { i.(*serveChaos).refSum++ }, 1},
	}
	for _, tc := range cases {
		wl, _ := findWorkload(tc.workload)
		inst := wl.setup(7, &setupClock{steps: map[string]float64{}})
		inst.reference()
		tc.corrupt(inst)
		p := newPass(nil)
		inst.pass(p)
		if len(p.failures) != tc.want {
			t.Errorf("%s: wrong reference gave %d failures of %d ops, want %d: %v",
				tc.workload, len(p.failures), p.ops, tc.want, p.failures)
		}
	}
}

// TestSpansNest checks the traced run's spans: every parent exists, and
// every child lies within its parent's interval.
func TestSpansNest(t *testing.T) {
	dir := t.TempDir()
	wl, _ := findWorkload("pipeline-chain")
	runTiny(t, wl, true, dir)
	f, err := os.Open(filepath.Join(dir, wl.name, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, s := range spans {
		layers[s.Layer] = true
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d %s [%d,%d] outside parent %d %s [%d,%d]",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
	}
	for _, l := range []string{"workload", "setup", "pass", "run", "pipeline", "memsim"} {
		if !layers[l] {
			t.Errorf("no span of layer %q", l)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

// TestQuantileInterpolates checks that the latency quantiles stay inside the
// recorder's bucket and follow the true value within it instead of reading
// the bucket's upper edge.
func TestQuantileInterpolates(t *testing.T) {
	rec := newBatchRecorder(0)
	for v := uint64(1); v <= 1000; v++ {
		rec.RecordLatency(v)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		exact := q * 1000
		got := quantile(rec, q)
		edge := float64(rec.Quantile(q))
		if got > edge || got < edge/1.125-1 {
			t.Errorf("q %v: %v outside the bucket ending at %v", q, got, edge)
		}
		if math.Abs(got-exact) > 1 {
			t.Errorf("q %v: %v, true quantile %v", q, got, exact)
		}
	}
	if got := quantile(newBatchRecorder(0), 0.5); got != 0 {
		t.Errorf("empty recorder: %v", got)
	}
}

// TestCompareVerdicts checks -compare's judgement of host metrics.
func TestCompareVerdicts(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	if v := boundVerdict(a, []float64{80, 81, 79, 80, 82}, "higher", 0.1); !strings.HasPrefix(v, "REGRESSED") {
		t.Errorf("20%% slower throughput: %s", v)
	}
	if v := boundVerdict(a, []float64{97, 98, 96, 97, 99}, "higher", 0.1); !strings.HasPrefix(v, "within bound") {
		t.Errorf("3%% slower throughput: %s", v)
	}
	if v := boundVerdict(a, []float64{50, 150, 100, 60, 140}, "higher", 0.1); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("wide spread: %s", v)
	}
}
