package amac_test

import (
	"reflect"
	"testing"

	"amac"
	"amac/internal/fault"
	"amac/internal/serve"
)

// faultServiceWorkers builds a two-worker partitioned-join service fixture
// and returns the workers plus the total request count.
func faultServiceWorkers(t *testing.T) ([]amac.ServiceWorker[amac.ProbeState], int) {
	t.Helper()
	const workers = 2
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, Seed: 23})
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
			Arrivals: serve.Deterministic{Period: 500}.Schedule(pj.Parts[w].Probe.Len(), 0),
		}
	}
	return specs, probe.Len()
}

// TestFaultPublicAPIZeroConfigMatchesRunService checks the exported
// RunFaultyService with no faults and no policies reproduces RunService
// bit-identically — the invariant that makes fault runs trustworthy as
// perturbations of a known-good baseline.
func TestFaultPublicAPIZeroConfigMatchesRunService(t *testing.T) {
	opts := amac.ServiceOptions{
		Hardware:  amac.XeonX5670(),
		Technique: amac.AMAC,
		Window:    8,
	}
	specs, n := faultServiceWorkers(t)
	clean := amac.RunService(opts, specs)

	specs, _ = faultServiceWorkers(t)
	faulty := amac.RunFaultyService(amac.FaultyServiceOptions{Options: opts}, specs)

	if !reflect.DeepEqual(clean.Stats, faulty.Stats) {
		t.Fatalf("core stats diverge:\nclean  %+v\nfaulty %+v", clean.Stats, faulty.Stats)
	}
	if !reflect.DeepEqual(clean.Latency, faulty.Latency) {
		t.Fatal("latency recorders diverge")
	}
	if !reflect.DeepEqual(clean.Sched, faulty.Sched) {
		t.Fatalf("scheduler stats diverge:\nclean  %+v\nfaulty %+v", clean.Sched, faulty.Sched)
	}
	if faulty.Faults == nil || faulty.Faults.Episodes != 0 {
		t.Fatalf("zero-config fault summary = %+v, want zero episodes", faulty.Faults)
	}
	if faulty.Latency.Completed != uint64(n) {
		t.Fatalf("completed %d of %d", faulty.Latency.Completed, n)
	}
}

// TestFaultPublicAPIParseAndInject parses a schedule with the -faults
// grammar and checks an injected slowdown is applied (episode counted,
// run slower than clean) while every request still completes.
func TestFaultPublicAPIParseAndInject(t *testing.T) {
	spec, err := fault.ParseSpec("slow:0@4000+40000x6")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sched == nil || len(spec.Sched.Episodes) != 1 {
		t.Fatalf("parsed spec %+v, want one scripted episode", spec)
	}
	ep := spec.Sched.Episodes[0]
	if ep.Kind != amac.FaultSlow || ep.Shard != 0 || ep.Start != 4000 || ep.Dur != 40000 || ep.Factor != 6 {
		t.Fatalf("parsed episode %+v", ep)
	}

	opts := amac.ServiceOptions{
		Hardware:  amac.XeonX5670(),
		Technique: amac.AMAC,
		Window:    8,
	}
	specs, n := faultServiceWorkers(t)
	clean := amac.RunService(opts, specs)

	specs, _ = faultServiceWorkers(t)
	faulty := amac.RunFaultyService(amac.FaultyServiceOptions{
		Options: opts,
		Faults:  spec.Sched,
	}, specs)

	if faulty.Faults == nil || faulty.Faults.Episodes != 1 {
		t.Fatalf("fault summary = %+v, want one episode", faulty.Faults)
	}
	if faulty.Latency.Completed != uint64(n) {
		t.Fatalf("completed %d of %d under slowdown", faulty.Latency.Completed, n)
	}
	// The run is arrival-bound, so elapsed cycles barely move; the slowdown
	// shows up as extra stall time and a fatter tail on the slowed shard.
	if faulty.PerWorker[0].Stats.StallCycles <= clean.PerWorker[0].Stats.StallCycles {
		t.Fatalf("slowed shard stalled %d cycles, clean %d — slowdown not applied",
			faulty.PerWorker[0].Stats.StallCycles, clean.PerWorker[0].Stats.StallCycles)
	}
	if faulty.PerWorker[0].Latency.P99() <= clean.PerWorker[0].Latency.P99() {
		t.Fatalf("slowed shard p99 %d, clean %d — tail unaffected",
			faulty.PerWorker[0].Latency.P99(), clean.PerWorker[0].Latency.P99())
	}

	if _, err := fault.ParseSpec("slow:0@bogus"); err == nil {
		t.Fatal("malformed spec accepted")
	}
	// Random drops draws that would overlap an earlier episode on the same
	// shard, so n is a cap, not an exact count.
	sched := fault.Random(7, 3, 2, 1_000_000)
	if sched == nil || sched.Empty() || len(sched.Episodes) > 3 {
		t.Fatalf("Random returned %v", sched)
	}
	if err := sched.Validate(2); err != nil {
		t.Fatalf("random schedule invalid: %v", err)
	}
}
