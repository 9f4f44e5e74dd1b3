package amac_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"amac"
	"amac/internal/adapt"
	"amac/internal/obs"
	"amac/internal/serve"
)

// hotColdJoin builds a phase-shifting workload through the public API: a
// DRAM-resident hash join whose first half of probe keys is a hot Zipf(2.0)
// draw (buckets go cache-resident) and whose second half is uniform, so the
// per-lookup cost jumps mid-run and the adaptive controller has something to
// decide about.
func hotColdJoin(t *testing.T) (*amac.HashJoin, *amac.Output) {
	t.Helper()
	const domain, half = 1 << 12, 1 << 11
	build, _, err := amac.BuildJoin(amac.JoinSpec{BuildSize: domain, ProbeSize: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	keys := amac.ZipfKeys(half, domain, 2.0, 7)
	keys = append(keys, amac.ZipfKeys(half, domain, 0, 8)...)
	join := amac.NewHashJoin(build, amac.KeyedRelation("S", keys, 1<<40))
	join.PrebuildRaw()
	return join, amac.NewOutput(join.Arena, false)
}

// TestAdaptiveDecisionLogPublicAPI drives an exported AdaptiveController
// through adapt.Run and reads the decision log back three ways: off the
// returned adapt.Info, off the controller, and as decision instants in an
// attached trace. The log must open with a probe epoch, resolve it with a calibration
// or switch, and render human-readably.
func TestAdaptiveDecisionLogPublicAPI(t *testing.T) {
	join, out := hotColdJoin(t)
	c := amac.MustSystem(amac.XeonX5670()).NewCore()

	ctl := amac.NewAdaptiveController(amac.AdaptiveConfig{SegmentLookups: 256, ProbeLookups: 64})
	trace := amac.NewTrace(0)
	ctl.SetTrace(trace.Core("core 0"))

	info := adapt.Run(c, join.ProbeMachine(out, false), ctl)

	if len(info.Decisions) < 2 {
		t.Fatalf("decision log holds %d entries, want at least probe-start + calibrate", len(info.Decisions))
	}
	if got := info.Decisions[0].Kind; got != adapt.KindProbeStart {
		t.Fatalf("first decision is %v, want %v", got, adapt.KindProbeStart)
	}
	if k := info.Decisions[1].Kind; k != adapt.KindCalibrate && k != adapt.KindSwitch {
		t.Fatalf("second decision is %v, want a calibration outcome", k)
	}
	if got := ctl.Decisions(); len(got) != len(info.Decisions) {
		t.Fatalf("controller reports %d decisions, info reports %d", len(got), len(info.Decisions))
	}
	var prev uint64
	for _, d := range info.Decisions {
		if d.Cycle < prev {
			t.Fatalf("decision log out of cycle order: %v after cycle %d", d, prev)
		}
		prev = d.Cycle
		if s := d.String(); !strings.Contains(s, d.Kind.String()) {
			t.Fatalf("decision %v renders as %q, missing its kind", d.Kind, s)
		}
	}

	// Every log entry is mirrored into the trace as a decision instant.
	instants := 0
	for _, ev := range trace.Cores()[0].Events() {
		if ev.Kind == obs.KindDecision {
			instants++
		}
	}
	if instants != len(info.Decisions) {
		t.Fatalf("trace carries %d decision instants, log holds %d entries", instants, len(info.Decisions))
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "probe start") {
		t.Fatal("Chrome export is missing the probe-start decision instant")
	}
}

// TestDisabledObsZeroAllocPublicAPI asserts the disabled observability path
// — nil sinks threaded through the exported types — allocates nothing at any
// recording site. This is the contract that lets every engine carry the
// instrumentation unconditionally.
func TestDisabledObsZeroAllocPublicAPI(t *testing.T) {
	var tr *amac.Trace
	var m *amac.Metrics
	allocs := testing.AllocsPerRun(200, func() {
		ct := tr.Core("core 0")
		ct.SlotStart(10, 1, 2)
		ct.StageVisit(10, 20, 1, 0)
		ct.SlotRetry(20, 1, 0)
		ct.SlotPrefetch(21, 1)
		ct.SlotEnd(30, 1)
		ct.GroupStart(30, 8)
		ct.GroupEnd(40, 8)
		ct.EngineSample(40, 10, 3)
		ct.WidthChange(41, 12)
		ct.Decision(42, 0, 1, 2)
		ct.QueueAdmit(50, 7)
		ct.QueueDrop(51, 8)
		ct.QueueBlock(52, 4)
		ct.QueueDepth(53, 4)
		ct.PipeDepth(54, 0, 2)
		ct.Backpressure(55, 0)
		cm := m.Core("core 0")
		cm.Tick(60)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %.1f times per run, want 0", allocs)
	}
}

// TestServiceDecisionLogPublicAPI runs an adaptive sharded service and reads
// each shard's decision log off the ServiceResult — the serving operator's
// "why did this shard switch technique?" path.
func TestServiceDecisionLogPublicAPI(t *testing.T) {
	const workers = 2
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 11, ProbeSize: 1 << 11, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	pj := amac.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()

	specs := make([]amac.ServiceWorker[amac.ProbeState], workers)
	for w := 0; w < workers; w++ {
		out := amac.NewOutput(pj.Parts[w].Arena, false)
		out.Sequential = true
		specs[w] = amac.ServiceWorker[amac.ProbeState]{
			Machine:  pj.ProbeMachine(w, out, true),
			Arrivals: serve.Deterministic{Period: 400}.Schedule(pj.Parts[w].Probe.Len(), 0),
		}
	}
	acfg := amac.AdaptiveConfig{SegmentLookups: 128, ProbeLookups: 32}
	res := amac.RunService(amac.ServiceOptions{
		Hardware:  amac.XeonX5670(),
		Technique: amac.AMAC,
		Window:    8,
		Adaptive:  &acfg,
	}, specs)

	if len(res.Adapt.Decisions) == 0 {
		t.Fatal("merged service info holds no decisions")
	}
	for w, wr := range res.PerWorker {
		if wr.Adapt == nil {
			t.Fatalf("worker %d has no adaptive info", w)
		}
		if len(wr.Adapt.Decisions) == 0 {
			t.Fatalf("worker %d recorded no decisions", w)
		}
		if wr.Adapt.Decisions[0].Kind != adapt.KindProbeStart {
			t.Fatalf("worker %d log opens with %v, want probe-start", w, wr.Adapt.Decisions[0].Kind)
		}
	}
}

// TestMetricsReusedAcrossServicesPublicAPI reuses one Metrics registry for
// two service runs. The second run registers its gauges on the same
// per-worker collections, so its samples carry more gauges than the first
// run's; the JSON Lines export must give every sample exactly the gauges
// that existed when it was taken.
func TestMetricsReusedAcrossServicesPublicAPI(t *testing.T) {
	const workers = 2
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	pj := amac.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()
	metrics := amac.NewMetrics(1024)
	run := func() {
		specs := make([]amac.ServiceWorker[amac.ProbeState], workers)
		for w := 0; w < workers; w++ {
			out := amac.NewOutput(pj.Parts[w].Arena, false)
			out.Sequential = true
			specs[w] = amac.ServiceWorker[amac.ProbeState]{
				Machine:  pj.ProbeMachine(w, out, true),
				Arrivals: serve.Deterministic{Period: 400}.Schedule(pj.Parts[w].Probe.Len(), 0),
			}
		}
		amac.RunService(amac.ServiceOptions{
			Hardware:  amac.XeonX5670(),
			Technique: amac.AMAC,
			Window:    8,
			Metrics:   metrics,
		}, specs)
	}
	run()
	first := make([]int, workers)
	for w, cm := range metrics.Cores() {
		first[w] = cm.Samples()
		if first[w] == 0 {
			t.Fatalf("worker %d took no samples in the first run", w)
		}
	}
	run()

	var buf bytes.Buffer
	if err := metrics.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	seen := map[string]int{}
	for i, line := range lines {
		var rec struct {
			Core   string             `json:"core"`
			Values map[string]float64 `json:"values"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		var w int
		if _, err := fmt.Sscanf(rec.Core, "worker %d", &w); err != nil || w < 0 || w >= workers {
			t.Fatalf("line %d has core %q", i, rec.Core)
		}
		want := 5 // the serving gauges of one run
		if seen[rec.Core] >= first[w] {
			want = 10 // both runs' gauges
		}
		if len(rec.Values) != want {
			t.Fatalf("%s sample %d carries %d gauges, want %d: %v", rec.Core, seen[rec.Core], len(rec.Values), want, rec.Values)
		}
		seen[rec.Core]++
	}
}
