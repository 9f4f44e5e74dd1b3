package experiments

import (
	"reflect"
	"testing"

	"amac/internal/exec"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/serve"
)

// faultDiffSpec is the shared workload of the fault differential tests: a
// tiny replicated serving join with a deterministic schedule.
var faultDiffSpec = relation.JoinSpec{BuildSize: 1 << 11, ProbeSize: 1 << 11, ZipfBuild: 1.0, Seed: 7}

// TestFaultNZeroFaultMatchesServeMachinery pins the experiment-level
// zero-fault equivalence: the faultN clean row (RunFaulty with a Sched map
// and no faults or policies) is bit-identical to plain serve.Run over the
// same replicas with the identical map applied at the machine layer
// (exec.RemapMachine). The two runs apply the position→index map in
// different layers, so agreement means the fault coordinator's scheduling
// changes nothing simulated.
func TestFaultNZeroFaultMatchesServeMachinery(t *testing.T) {
	const workers = 2
	fj := defaultWorkloads.faultJoin(faultDiffSpec, workers, 3)
	arrivals := func(w int) []uint64 {
		return cachedArrivalSchedule("deterministic", 600, len(fj.scheds[w]), uint64(w)+1)
	}
	opts := serve.Options{
		Hardware:  memsim.XeonX5670(),
		Technique: ops.AMAC,
		Window:    8,
		Prepare:   func(w int, c *memsim.Core) { warmTable(c, fj.joins[w]) },
	}

	// Reference: plain serve.Run, map applied inside the machine.
	refSpecs := make([]serve.Worker[ops.ProbeState], workers)
	for w := 0; w < workers; w++ {
		fj.outs[1][w].Reset()
		refSpecs[w] = serve.Worker[ops.ProbeState]{
			Machine:  exec.RemapMachine[ops.ProbeState]{M: fj.joins[w].ProbeMachine(fj.outs[1][w], true), Idx: fj.scheds[w]},
			Arrivals: arrivals(w),
		}
	}
	ref := serve.Run(opts, refSpecs)

	// Subject: RunFaulty, map applied at the source layer, zero config.
	runFaulty := func(parallel int) serve.Result {
		specs := make([]serve.Worker[ops.ProbeState], workers)
		for w := 0; w < workers; w++ {
			fj.outs[2][w].Reset()
			specs[w] = serve.Worker[ops.ProbeState]{
				Machine:  fj.joins[w].ProbeMachine(fj.outs[2][w], true),
				Arrivals: arrivals(w),
			}
		}
		return serve.RunFaulty(serve.FaultyOptions{Options: opts, Sched: fj.scheds}, specs)
	}

	for _, name := range []string{"first", "again"} {
		got := runFaulty(1)
		if !reflect.DeepEqual(ref.Stats, got.Stats) {
			t.Fatalf("%s: core stats diverge:\nserve.Run  %+v\nRunFaulty  %+v", name, ref.Stats, got.Stats)
		}
		if !reflect.DeepEqual(ref.Latency, got.Latency) {
			t.Fatalf("%s: latency recorders diverge:\nserve.Run  %v\nRunFaulty  %v", name, &ref.Latency, &got.Latency)
		}
		if !reflect.DeepEqual(ref.Sched, got.Sched) {
			t.Fatalf("%s: scheduler stats diverge:\nserve.Run  %+v\nRunFaulty  %+v", name, ref.Sched, got.Sched)
		}
		for w := 0; w < workers; w++ {
			if !reflect.DeepEqual(ref.PerWorker[w].Stats, got.PerWorker[w].Stats) {
				t.Fatalf("%s: worker %d stats diverge", name, w)
			}
		}
	}
	if ref.Latency.Completed != uint64(faultDiffSpec.ProbeSize) {
		t.Fatalf("completed %d of %d", ref.Latency.Completed, faultDiffSpec.ProbeSize)
	}
}

// TestFaultNShapes asserts the degradation ladder's decisive facts at tiny
// scale: the naive run's tail blows past the clean baseline, the full
// recovery stack keeps surviving p99 inside the deadline (derived as 2x the
// clean p99), the recovery paths actually fire, and no slot leaks.
func TestFaultNShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full tiny-scale faultN ladder")
	}
	cfg := Config{Scale: Tiny, Parallel: 1, SLOBudget: 1}
	tables, err := Run("faultN", cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := tables[0]
	cleanP99 := lat.Get("clean", "p99")
	naiveP99 := lat.Get("naive", "p99")
	breakerP99 := lat.Get("breaker", "p99")
	if cleanP99 <= 0 {
		t.Fatalf("clean p99 = %v", cleanP99)
	}
	if naiveP99 < 3*cleanP99 {
		t.Errorf("naive p99 %.2f should blow past clean %.2f under an unmitigated slowdown", naiveP99, cleanP99)
	}
	if breakerP99 > 2.05*cleanP99 {
		t.Errorf("full-stack p99 %.2f should stay within the 2x-clean deadline (clean %.2f)", breakerP99, cleanP99)
	}

	outs, recov := tables[1], tables[2]
	if served := outs.Get("breaker", "served"); served < 0.5 {
		t.Errorf("full stack served only %.2f of offered", served)
	}
	if recov.Get("hedge", "hedged") == 0 || recov.Get("hedge", "hedge-wins") == 0 {
		t.Error("hedge row issued no winning hedges")
	}
	if recov.Get("breaker", "rerouted") == 0 || recov.Get("breaker", "breaker-trips") == 0 {
		t.Error("breaker row never tripped or rerouted")
	}
	if outs.Get("slo", "shed") == 0 {
		t.Error("slo row (budget 1 cycle) shed nothing")
	}
	for _, row := range []string{"clean", "naive", "deadline", "hedge", "breaker", "slo"} {
		total := outs.Get(row, "served") + outs.Get(row, "timed-out") + outs.Get(row, "failed") +
			outs.Get(row, "shed") + outs.Get(row, "dropped")
		if total < 0.999 || total > 1.001 {
			t.Errorf("%s: outcome fractions sum to %.4f, want 1", row, total)
		}
	}
}

// TestFaultNSlotAccounting runs the full-stack row directly and asserts the
// engine-level no-leak invariant: every initiated slot is accounted as
// completed, timed out, or aborted — under fault churn, hedges and retries.
func TestFaultNSlotAccounting(t *testing.T) {
	const workers = 2
	fj := defaultWorkloads.faultJoin(faultDiffSpec, workers, 3)
	specs := make([]serve.Worker[ops.ProbeState], workers)
	for w := 0; w < workers; w++ {
		fj.outs[1][w].Reset()
		specs[w] = serve.Worker[ops.ProbeState]{
			Machine:  fj.joins[w].ProbeMachine(fj.outs[1][w], true),
			Arrivals: cachedArrivalSchedule("poisson", 100, len(fj.scheds[w]), uint64(w)+1),
		}
	}
	res := serve.RunFaulty(serve.FaultyOptions{
		Options: serve.Options{
			Hardware:  memsim.XeonX5670(),
			Technique: ops.AMAC,
			Window:    8,
			Prepare:   func(w int, c *memsim.Core) { warmTable(c, fj.joins[w]) },
		},
		// The slowdown overloads shard 1 (6x its service time at this load)
		// and the crash starts the instant it ends, while the engine is still
		// draining the backlog — exercising both deadline timeouts and
		// in-flight aborts.
		Faults: &fault.Schedule{Episodes: []fault.Episode{
			{Kind: fault.Slow, Shard: 1, Start: 20_000, Dur: 30_000, Factor: 6},
			{Kind: fault.Crash, Shard: 1, Start: 50_000, Dur: 20_000},
		}},
		Deadline: 8_000,
		Retry:    fault.RetryPolicy{Max: 2, Backoff: 4_000},
		Hedge:    fault.HedgePolicy{Delay: 6_000},
		Breaker:  &fault.BreakerConfig{Cooldown: 32_000},
		Sched:    fj.scheds,
	}, specs)

	s := res.Sched
	if s.Initiated != s.Completed+s.TimedOut+s.Aborted {
		t.Fatalf("slot leak: initiated %d != completed %d + timedOut %d + aborted %d",
			s.Initiated, s.Completed, s.TimedOut, s.Aborted)
	}
	if s.TimedOut == 0 || s.Aborted == 0 {
		t.Fatalf("scenario should exercise both in-flight timeouts (%d) and crash aborts (%d)", s.TimedOut, s.Aborted)
	}
	r := res.Latency
	n := uint64(faultDiffSpec.ProbeSize)
	if r.Offered != n {
		t.Fatalf("offered %d of %d", r.Offered, n)
	}
	if got := r.Completed + r.TimedOut + r.Failed + r.Shed + r.Dropped; got != n {
		t.Fatalf("request accounting: %d resolved of %d (%+v)", got, n, &r)
	}
	if res.Faults == nil || res.Faults.Episodes != 2 {
		t.Fatalf("fault summary %+v, want 2 episodes", res.Faults)
	}
}
