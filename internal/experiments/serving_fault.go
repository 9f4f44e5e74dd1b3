package experiments

import (
	"fmt"

	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/serve"
	"amac/internal/table"
)

func init() {
	register(Descriptor{
		ID:    "faultN",
		Title: "Fault injection: graceful degradation of the streaming service under shard faults (Xeon, AMAC)",
		Run:   faultN,
		Uses:  UsesServing | UsesFaults | UsesWorkers | UsesSinks,
	})
}

// faultLoad is the offered load of every faultN row, as a fraction of the
// aggregate AMAC service capacity — the decisive serveN operating point:
// healthy shards have headroom, but a 4x-slowed shard does not, so the run
// is only survivable if the recovery policies move or shed its traffic.
const faultLoad = 0.9

// faultKey identifies a replicated serving workload in a workloadSet.
type faultKey struct {
	spec    relation.JoinSpec
	workers int
	runs    int
}

// faultJoin is a serving workload for fault injection: unlike the
// partitioned serveN workload, every worker holds a FULL replica of the
// hash join (its own arena), so any shard can serve any request — the
// property hedging, rerouting and retry-on-sibling rely on. scheds maps
// each worker's schedule positions to the contiguous block of lookup
// indices it is home shard for; collectors are pre-allocated in run-major
// order so every sweep worker's copy lays them out at identical simulated
// addresses (see servingJoin).
type faultJoin struct {
	joins  []*ops.HashJoin
	outs   [][]*ops.Output // [run][worker]
	scheds [][]int32
}

// faultJoin returns the set's replicated serving workload for the key,
// materializing it on first use.
func (ws *workloadSet) faultJoin(spec relation.JoinSpec, workers, runs int) *faultJoin {
	build, probe := cachedJoinRelations(spec)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.faults.get(faultKey{spec, workers, runs}, func() *faultJoin {
		fj := &faultJoin{}
		n := probe.Len()
		for w := 0; w < workers; w++ {
			j := ops.NewHashJoin(build, probe)
			j.PrebuildRaw()
			fj.joins = append(fj.joins, j)
		}
		fj.outs = make([][]*ops.Output, runs)
		for r := range fj.outs {
			fj.outs[r] = make([]*ops.Output, workers)
			for w := range fj.outs[r] {
				fj.outs[r][w] = ops.NewOutput(fj.joins[w].Arena, false)
			}
		}
		fj.scheds = make([][]int32, workers)
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			sched := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				sched = append(sched, int32(i))
			}
			fj.scheds[w] = sched
		}
		return fj
	})
}

// faultMode is one degradation row: which policies are layered onto the
// faulted service. The rows form a ladder — each adds one mechanism — so
// the table reads as an ablation of the recovery stack.
type faultMode struct {
	name     string
	faults   bool
	deadline bool
	retry    bool
	hedge    bool
	breaker  bool
	slo      bool
}

// faultN measures graceful degradation end to end: the serveN workload
// (skewed build keys, long divergent chains) is replicated across shards
// and served at 90% of aggregate capacity while a deterministic fault
// schedule — by default one shard at 4x memory latency for the middle half
// of the run — plays against the simulated clock. Each row re-runs the
// identical faulted workload with one more recovery mechanism enabled:
// nothing (naive), per-request deadlines with capped-backoff retry, hedged
// re-dispatch to a sibling replica, a per-shard circuit breaker, and (with
// -slo) the SLO brownout. The clean row is the same configuration with no
// faults, and doubles as the calibration run the deadline, hedge delay and
// SLO budget are derived from.
//
// -faults overrides the chaos schedule ("kind:shard@start+durxfactor" list
// or "rand:SEED[:N]"); -deadline and -slo override the derived cycle
// budgets; -workers sets the replica count (default 4, minimum 2 so every
// shard has a sibling); -arrivals and -qcap behave as in serveN. Rows are
// independent runs and fan out over -parallel sweep workers.
func faultN(cfg Config) []*table.Table {
	sz := cfg.sizes()
	n := sz.joinLarge
	machine := memsim.XeonX5670()
	workers := 4
	if cfg.Workers > 0 {
		workers = cfg.Workers
	}
	if workers < 2 {
		workers = 2 // recovery needs a sibling to hedge or reroute to
	}

	modes := []faultMode{
		{name: "clean"},
		{name: "naive", faults: true},
		{name: "deadline", faults: true, deadline: true, retry: true},
		{name: "hedge", faults: true, deadline: true, retry: true, hedge: true},
		{name: "breaker", faults: true, deadline: true, retry: true, hedge: true, breaker: true},
	}
	if cfg.SLOBudget > 0 {
		modes = append(modes, faultMode{name: "slo", faults: true, deadline: true,
			retry: true, hedge: true, breaker: true, slo: true})
	}

	spec := relation.JoinSpec{BuildSize: n, ProbeSize: n, ZipfBuild: 1.0, Seed: cfg.seed()}
	runs := 1 + len(modes) // run 0 is the batch capacity calibration
	sj := defaultWorkloads.faultJoin(spec, workers, runs)
	perCore := calibrateFaultCapacity(sj, machine, workers, cfg.window())
	period := 1 / (faultLoad * perCore)
	policy := queuePolicy(cfg)

	// The run horizon (for scheduling default fault episodes) is the last
	// arrival across all shards; schedules are cached, so the rows replay
	// these exact arrivals.
	var horizon uint64
	for w := 0; w < workers; w++ {
		arr := cachedArrivalSchedule(cfg.Arrivals, period, len(sj.scheds[w]), cfg.seed()+uint64(w)+1)
		if len(arr) > 0 && arr[len(arr)-1] > horizon {
			horizon = arr[len(arr)-1]
		}
	}
	sched := faultSchedule(cfg, workers, horizon)

	// The clean row runs serially first: it is both the baseline row and the
	// calibration the recovery knobs derive from (deadline and SLO budget 2x
	// the clean p99, hedge delay the clean p99 — the tail-at-scale rule).
	clean := runFaultServe(defaultEnv, cfg, spec, workers, runs, 1, machine, period,
		nil, modes[0], 0, fault.RetryPolicy{}, fault.HedgePolicy{}, nil, fault.SLO{}, policy, obs.Sinks{})
	p99c := clean.Latency.P99()
	if p99c == 0 {
		p99c = 1
	}
	deadline := 2 * p99c
	if cfg.Deadline > 0 {
		deadline = uint64(cfg.Deadline)
	}
	retry := fault.RetryPolicy{Max: 2, Backoff: deadline / 2}
	hedge := fault.HedgePolicy{Delay: p99c}
	// The cooldown is a few request deadlines rather than the absolute
	// default: an open breaker should send half-open probes on the timescale
	// requests resolve on, so a healed shard rejoins within a few deadlines
	// instead of staying evicted for the rest of the run.
	breaker := &fault.BreakerConfig{Cooldown: 4 * deadline}
	slo := fault.SLO{P99Budget: 2 * p99c}
	if cfg.SLOBudget > 0 {
		slo.P99Budget = uint64(cfg.SLOBudget)
	}

	rows := make([]string, len(modes))
	for i, m := range modes {
		rows[i] = m.name
	}
	lat := table.New("faultN", "Fault injection: surviving-request latency by degradation mode (Xeon, AMAC)", "kcycles", rows, []string{"p50", "p95", "p99"})
	outs := table.New("faultN-outcomes", "Fault injection: request outcome fractions by degradation mode", "fraction", rows, []string{"served", "timed-out", "failed", "shed", "dropped"})
	recov := table.New("faultN-recovery", "Fault injection: recovery-path activity by degradation mode", "count", rows, []string{"retried", "hedged", "hedge-wins", "rerouted", "breaker-trips"})
	lat.AddNote("faults: %s (horizon %d cycles)", sched, horizon)
	lat.AddNote("|R| = |S| = 2^%d, Zipf(1.0) build keys, %d full replicas, %s arrivals, %s queue, %d%% of capacity (%.4f req/cycle/core), scale %q",
		log2(n), workers, arrivalsName(cfg), policyLabel(policy, cfg.QueueCap), int(faultLoad*100), perCore, cfg.scale())
	lat.AddNote("derived from the clean p99 (%d cycles): deadline %d, retry backoff %d x2, hedge delay %d, SLO budget %d",
		p99c, deadline, retry.Backoff, hedge.Delay, slo.P99Budget)
	outs.AddNote("each row adds one recovery mechanism to the previous; deadlines convert unbounded queueing into timed-out requests, hedging and the breaker move the sick shard's traffic to its siblings")

	var tasks []func(*sweepEnv) serve.Result
	for i, m := range modes {
		i, m := i, m
		tasks = append(tasks, func(e *sweepEnv) serve.Result {
			if i == 0 {
				return clean // already measured during calibration
			}
			// The breaker row is faultN's designated cell: the full
			// recovery stack, recorded exactly once so the exports are
			// deterministic under -parallel.
			var sinks obs.Sinks
			if m.name == "breaker" {
				sinks = cfg.Sinks
			}
			return runFaultServe(e, cfg, spec, workers, runs, 1+i, machine, period,
				sched, m, deadline, retry, hedge, breaker, slo, policy, sinks)
		})
	}
	for i, res := range runSweep(cfg, tasks) {
		row := modes[i].name
		r := &res.Latency
		lat.Set(row, "p50", float64(r.P50())/1000)
		lat.Set(row, "p95", float64(r.P95())/1000)
		lat.Set(row, "p99", float64(r.P99())/1000)
		offered := float64(r.Offered)
		if offered == 0 {
			offered = 1
		}
		outs.Set(row, "served", float64(r.Completed)/offered)
		outs.Set(row, "timed-out", float64(r.TimedOut)/offered)
		outs.Set(row, "failed", float64(r.Failed)/offered)
		outs.Set(row, "shed", float64(r.Shed)/offered)
		outs.Set(row, "dropped", float64(r.Dropped)/offered)
		recov.Set(row, "retried", float64(r.Retried))
		recov.Set(row, "hedged", float64(r.Hedged))
		recov.Set(row, "hedge-wins", float64(r.HedgeWins))
		recov.Set(row, "rerouted", float64(r.Rerouted))
		trips := 0
		if res.Faults != nil {
			for _, t := range res.Faults.Breaker {
				if t.To == fault.StateOpen {
					trips++
				}
			}
		}
		recov.Set(row, "breaker-trips", float64(trips))
	}
	return []*table.Table{lat, outs, recov}
}

// faultSchedule resolves the chaos schedule: the -faults spec when given,
// else the default scripted scenario — shard 0 at 4x memory latency for the
// middle half of the run.
func faultSchedule(cfg Config, workers int, horizon uint64) *fault.Schedule {
	if cfg.Faults != "" {
		spec, err := fault.ParseSpec(cfg.Faults)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		sched, err := spec.Resolve(workers, horizon)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return sched
	}
	return &fault.Schedule{Episodes: []fault.Episode{
		{Kind: fault.Slow, Shard: 0, Start: horizon / 4, Dur: horizon / 2, Factor: 4},
	}}
}

// runFaultServe executes one degradation row: every worker serves the full
// replicated join from a queue fed by its home block's arrival schedule,
// under the row's fault schedule and recovery policies. Uses the workload's
// pre-allocated run-indexed collectors and the shared arrival-schedule
// cache, like runServe.
func runFaultServe(e *sweepEnv, cfg Config, spec relation.JoinSpec, workers, runs, run int,
	machine memsim.Config, period float64, sched *fault.Schedule, m faultMode,
	deadline uint64, retry fault.RetryPolicy, hedge fault.HedgePolicy,
	breaker *fault.BreakerConfig, slo fault.SLO, policy serve.Policy,
	sinks obs.Sinks) serve.Result {
	fj := e.wl.faultJoin(spec, workers, runs)
	specs := make([]serve.Worker[ops.ProbeState], workers)
	for w := 0; w < workers; w++ {
		fj.outs[run][w].Reset()
		specs[w] = serve.Worker[ops.ProbeState]{
			Machine:  fj.joins[w].ProbeMachine(fj.outs[run][w], true),
			Arrivals: cachedArrivalSchedule(cfg.Arrivals, period, len(fj.scheds[w]), cfg.seed()+uint64(w)+1),
		}
	}
	fo := serve.FaultyOptions{
		Options: serve.Options{
			Hardware:  machine,
			Technique: ops.AMAC,
			Window:    cfg.window(),
			QueueCap:  cfg.QueueCap,
			Policy:    policy,
			Prepare:   func(w int, c *memsim.Core) { warmTable(c, fj.joins[w]) },
			Trace:     sinks.Trace,
			Metrics:   sinks.Metrics,
			Profile:   sinks.Profile,
		},
		Sched: fj.scheds,
	}
	if m.faults {
		fo.Faults = sched
	}
	if m.deadline {
		fo.Deadline = deadline
	}
	if m.retry {
		fo.Retry = retry
	}
	if m.hedge {
		fo.Hedge = hedge
	}
	if m.breaker {
		fo.Breaker = breaker
	}
	if m.slo {
		fo.SLO = slo
	}
	return serve.RunFaulty(fo, specs)
}

// calibrateFaultCapacity measures AMAC's per-core batch service capacity
// (requests per cycle) on one replica, under the same LLC share and
// active-thread count as the serving rows; the aggregate capacity is
// workers times it. Uses (and resets) the calibration collector, outs[0][0].
func calibrateFaultCapacity(fj *faultJoin, machine memsim.Config, workers, window int) float64 {
	out := fj.outs[0][0]
	out.Reset()
	sys := memsim.MustSystem(machine.ShareLLC(workers))
	core := sys.NewCore()
	sys.SetActiveThreads(workers, core)
	warmTable(core, fj.joins[0])
	core.ResetStats()
	pm := fj.joins[0].ProbeMachine(out, true)
	ops.RunMachine(core, pm, ops.AMAC, ops.Params{Window: window})
	return float64(pm.NumLookups()) / float64(core.Stats().Cycles)
}
