package experiments

import (
	"fmt"
	"strings"

	"amac/internal/adapt"
	"amac/internal/arena"
	"amac/internal/bst"
	"amac/internal/ht"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/pipeline"
	"amac/internal/relation"
	"amac/internal/serve"
	"amac/internal/table"
)

func init() {
	register(Descriptor{
		ID:    "pipeN",
		Title: "Streaming multi-operator pipelines: cost-seeded mini-planner versus uniform and exhaustive static per-stage assignments",
		Run:   pipeN,
		Uses:  UsesPipeline | UsesServing | UsesSinks,
	})
}

// pipeSizes are the pipeN workload knobs, split from the scale table so the
// shape tests can run the same machinery on a scaled hierarchy.
type pipeSizes struct {
	rows   int // root probe rows per plan
	build  int // DRAM-resident build-table cardinality
	dim    int // cache-resident dimension table of the mixed chain plan
	bst    int // BST size of the probe→filter plan
	groups int // aggregation group count
	sample int // mini-planner root sample size
}

// The pipeN plan names, hoisted so the -plans filter can be validated
// without materializing any workload.
const (
	pipeAggPlan   = "build→probe→aggregate (steady)"
	pipeBSTPlan   = "probe→BST filter (steady)"
	pipeChainPlan = "3-way join chain (mixed)"
)

// pipePlanNames lists every pipeN plan in execution order.
var pipePlanNames = []string{pipeAggPlan, pipeBSTPlan, pipeChainPlan}

// PipePlanNames returns the names of the pipeline experiment's plans, in the
// order pipeN runs them.
func PipePlanNames() []string { return append([]string(nil), pipePlanNames...) }

// ValidatePipePlans checks a Config.Plans filter: comma-separated,
// case-insensitive substring tokens, each of which must match at least one
// pipeN plan name. The empty filter (run everything) is valid.
func ValidatePipePlans(filter string) error {
	_, err := selectPipePlans(filter)
	return err
}

// selectPipePlans resolves a Plans filter to the set of selected plan names
// (nil means every plan).
func selectPipePlans(filter string) (map[string]bool, error) {
	if filter == "" {
		return nil, nil
	}
	sel := make(map[string]bool)
	for _, tok := range strings.Split(filter, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return nil, fmt.Errorf("experiments: empty token in plan filter %q", filter)
		}
		matched := false
		for _, name := range pipePlanNames {
			if strings.Contains(strings.ToLower(name), strings.ToLower(tok)) {
				sel[name] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("experiments: plan filter token %q matches no pipeN plan (have: %s)", tok, strings.Join(pipePlanNames, "; "))
		}
	}
	return sel, nil
}

// pipeKey identifies one materialized pipeline workload in a workloadSet.
// The LLC size is part of the key because the cached mini-planner choice
// depends on the machine the sampling ran on.
type pipeKey struct {
	kind                             string
	rows, build, aux, groups, sample int
	seed                             uint64
	llc                              int
}

// pipeWorkload is one materialized pipeline plan: the builder (whose charged
// pipe windows and planner scratch are allocated eagerly, so every sweep
// worker's copy performs the identical arena allocation sequence), the sink
// collector, and the mini-planner's cached choice. Probed structures are
// read-only under every run, the Output resets per cell — the probeJoin
// reuse contract.
type pipeWorkload struct {
	b      *pipeline.Builder
	out    *ops.Output
	rows   int
	choice pipeline.PlanChoice
}

// pipeWorkload returns the set's cached pipeline workload for the key,
// materializing it on first use.
func (ws *workloadSet) pipeWorkload(key pipeKey, build func() *pipeWorkload) *pipeWorkload {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.pipes.get(key, build)
}

// pipeCell is one measured pipeline run.
type pipeCell struct {
	cycles uint64
	rows   int
}

func (c pipeCell) cyclesPerRow() float64 {
	if c.rows == 0 {
		return 0
	}
	return float64(c.cycles) / float64(c.rows)
}

// pipePlan is one multi-operator plan of the pipeN sweep, closed over its
// deterministic workload materialization.
type pipePlan struct {
	name   string
	stages int
	// mixed marks the plan whose stages sit in different regimes — the one
	// the planner must beat every uniform assignment on.
	mixed bool

	choice   func(e *sweepEnv) pipeline.PlanChoice
	run      func(e *sweepEnv, cfgs []pipeline.StageConfig) pipeCell
	adaptive func(e *sweepEnv) pipeCell
	// observed re-runs the plan with sinks attached to its core (stage slot
	// lifecycle, pipe depth counters, backpressure instants, gauges, cycle
	// attribution); nil for plans whose cells rebuild non-reusable state.
	observed func(e *sweepEnv, cfgs []pipeline.StageConfig, sinks obs.Sinks) pipeCell
	// serving runs the plan under open-loop arrivals and returns the merged
	// end-to-end latency recorder (nil for plans without a serving variant).
	serving func(e *sweepEnv, arrivals []uint64, qcap int, policy serve.Policy, cfgs []pipeline.StageConfig) *serve.Recorder
}

// pipeRel builds a deterministic relation from per-row key/payload functions.
func pipeRel(name string, n int, key, payload func(i int) uint64) *relation.Relation {
	t := make([]relation.Tuple, n)
	for i := range t {
		t[i] = relation.Tuple{Key: key(i), Payload: payload(i)}
	}
	return &relation.Relation{Name: name, Tuples: t}
}

// pipeCore builds a fresh measured core (private socket, cold caches — the
// same state for every column of a row).
func pipeCore(machine memsim.Config) *memsim.Core {
	return memsim.MustSystem(machine).NewCore()
}

// pipePlans builds the three pipeN plan definitions. The relations are
// generated once here and captured by the closures (immutable, safe to share
// across sweep workers); arena-backed materializations happen per worker
// through the workloadSet.
func pipePlans(machine memsim.Config, ps pipeSizes, seed uint64, acfg adapt.Config) []pipePlan {
	llc := machine.L3.SizeBytes

	// Plan 1 — build→probe→aggregate: a charged hash build prelude, a scan
	// probe over the built table (half-matching keys) and a group-by sink.
	// The prelude mutates the table, so every cell materializes a fresh
	// arena; fresh arenas share a base address, so cycle counts stay
	// comparable and deterministic.
	aggBuild := pipeRel("R", ps.build,
		func(i int) uint64 { return uint64(i) + 1 },
		func(i int) uint64 { return uint64(i) % uint64(ps.groups) })
	aggProbe := pipeRel("S", ps.rows,
		func(i int) uint64 { return (uint64(i)*2654435761+seed)%uint64(2*ps.build) + 1 },
		func(i int) uint64 { return uint64(i) })
	freshAgg := func(prelude bool) *pipeline.Builder {
		a := arena.New()
		table := ht.New(a, ps.build/ops.TuplesPerBucket)
		agg := ht.NewAgg(a, ps.groups)
		bin := ops.NewInput(a, aggBuild)
		pin := ops.NewInput(a, aggProbe)
		b := pipeline.NewBuilder(a)
		if prelude {
			b.PreludeBuild(table, bin)
		} else {
			// The planner never runs preludes: its twin probes a pre-built
			// table with the exact content the prelude would produce.
			for _, t := range aggBuild.Tuples {
				table.InsertRaw(t.Key, t.Payload)
			}
		}
		b.ScanProbe(table, pin, true)
		b.Aggregate(agg, pipeline.SelBuildPayload)
		return b
	}
	aggKey := pipeKey{kind: "agg-twin", rows: ps.rows, build: ps.build, groups: ps.groups, sample: ps.sample, seed: seed, llc: llc}
	aggTwin := func(e *sweepEnv) *pipeWorkload {
		return e.wl.pipeWorkload(aggKey, func() *pipeWorkload {
			b := freshAgg(false)
			return &pipeWorkload{b: b, rows: aggProbe.Len(), choice: b.Plan(machine, ps.sample, adapt.Config{})}
		})
	}

	// Plan 2 — probe→BST filter (steady): the root probes a DRAM-resident
	// table (every key matches, so the filter sees the full row stream) and
	// the filter walks a BST. Both stages are long pointer chases with
	// memory-level parallelism to mine, so they agree on the engine — the
	// planner's job here is to not lose to the exhaustive sweep. This is
	// also the served plan of the pipeN-serve table.
	bstProbe := pipeRel("S", ps.rows,
		func(i int) uint64 { return (uint64(i)*2654435761+seed)%uint64(ps.build) + 1 },
		func(i int) uint64 { return uint64(i) })
	bstKey := pipeKey{kind: "bst", rows: ps.rows, build: ps.build, aux: ps.bst, sample: ps.sample, seed: seed, llc: llc}
	bstWL := func(e *sweepEnv) *pipeWorkload {
		return e.wl.pipeWorkload(bstKey, func() *pipeWorkload {
			a := arena.New()
			table := ht.New(a, ps.build/ops.TuplesPerBucket)
			for k := uint64(1); k <= uint64(ps.build); k++ {
				// Build payloads land in the tree's key domain about half the
				// time, so the filter actually filters.
				table.InsertRaw(k, (k*7919)%uint64(2*ps.bst)+1)
			}
			tree := bst.New(a)
			for i := 0; i < ps.bst; i++ {
				k := (uint64(i)*2654435761)%uint64(2*ps.bst) + 1
				tree.Insert(k, k+13)
			}
			pin := ops.NewInput(a, bstProbe)
			out := ops.NewOutput(a, false)
			b := pipeline.NewBuilder(a)
			b.ScanProbe(table, pin, true)
			b.BSTFilter(tree, pipeline.SelBuildPayload)
			return &pipeWorkload{b: b, out: out, rows: bstProbe.Len(), choice: b.Plan(machine, ps.sample, adapt.Config{})}
		})
	}

	// Plan 3 — 3-way join chain, the mixed plan: a DRAM-resident root join,
	// a small cache-resident dimension join in the middle (probing on the
	// root's matched payload), and a DRAM-resident tail join on a second,
	// independently diverse attribute of the original row (the carried
	// probe-side payload). The middle stage is a short warm probe — the
	// regime where the baseline loop's lean bookkeeping wins — while the
	// outer stages are cold pointer chases that want memory-level
	// parallelism, so no uniform assignment is right for all three stages.
	n := uint64(ps.build)
	dim := uint64(ps.dim)
	chainProbe := pipeRel("S", ps.rows,
		func(i int) uint64 { return (uint64(i)*2654435761+seed)%n + 1 },
		func(i int) uint64 { return (uint64(i)*2246822519+seed)%n + 1 })
	chainKey := pipeKey{kind: "chain", rows: ps.rows, build: ps.build, aux: ps.dim, sample: ps.sample, seed: seed, llc: llc}
	chainWL := func(e *sweepEnv) *pipeWorkload {
		return e.wl.pipeWorkload(chainKey, func() *pipeWorkload {
			a := arena.New()
			mk := func(size int, pay func(k uint64) uint64) *ht.Table {
				t := ht.New(a, size/ops.TuplesPerBucket)
				for k := uint64(1); k <= uint64(size); k++ {
					t.InsertRaw(k, pay(k))
				}
				return t
			}
			t1 := mk(ps.build, func(k uint64) uint64 { return (k*7)%dim + 1 })
			t2 := mk(ps.dim, func(k uint64) uint64 { return (k*2654435761)%n + 1 })
			t3 := mk(ps.build, func(k uint64) uint64 { return k * 1000 })
			pin := ops.NewInput(a, chainProbe)
			out := ops.NewOutput(a, false)
			b := pipeline.NewBuilder(a)
			b.ScanProbe(t1, pin, true)
			b.Probe(t2, pipeline.SelBuildPayload, true)
			b.Probe(t3, pipeline.SelProbePayload, true)
			return &pipeWorkload{b: b, out: out, rows: chainProbe.Len(), choice: b.Plan(machine, ps.sample, adapt.Config{})}
		})
	}

	newCtls := func(c *memsim.Core, stages int) []*adapt.Controller {
		ctls := make([]*adapt.Controller, stages)
		for i := range ctls {
			ctls[i] = adapt.NewControllerFor(c, acfg)
		}
		return ctls
	}

	// runCachedObserved runs one measured cell of a read-only cached
	// workload, with optional sinks on its core.
	runCachedObserved := func(wl func(e *sweepEnv) *pipeWorkload) func(e *sweepEnv, cfgs []pipeline.StageConfig, sinks obs.Sinks) pipeCell {
		return func(e *sweepEnv, cfgs []pipeline.StageConfig, sinks obs.Sinks) pipeCell {
			w := wl(e)
			w.out.Reset()
			c := pipeCore(machine)
			att := sinks.Attach(c, "pipeline")
			p := w.b.Build(w.out)
			p.SetTrace(att.Trace)
			p.Run(c, cfgs)
			att.Detach()
			return pipeCell{cycles: c.Cycle(), rows: w.rows}
		}
	}
	runCached := func(wl func(e *sweepEnv) *pipeWorkload) func(e *sweepEnv, cfgs []pipeline.StageConfig) pipeCell {
		ro := runCachedObserved(wl)
		return func(e *sweepEnv, cfgs []pipeline.StageConfig) pipeCell { return ro(e, cfgs, obs.Sinks{}) }
	}
	adaptCached := func(wl func(e *sweepEnv) *pipeWorkload, stages int) func(e *sweepEnv) pipeCell {
		return func(e *sweepEnv) pipeCell {
			w := wl(e)
			w.out.Reset()
			c := pipeCore(machine)
			w.b.Build(w.out).RunAdaptive(c, newCtls(c, stages))
			return pipeCell{cycles: c.Cycle(), rows: w.rows}
		}
	}
	serveCached := func(wl func(e *sweepEnv) *pipeWorkload) func(e *sweepEnv, arrivals []uint64, qcap int, policy serve.Policy, cfgs []pipeline.StageConfig) *serve.Recorder {
		return func(e *sweepEnv, arrivals []uint64, qcap int, policy serve.Policy, cfgs []pipeline.StageConfig) *serve.Recorder {
			w := wl(e)
			w.out.Reset()
			var lat serve.Recorder
			p := w.b.BuildServing(pipeline.ServingSpec{
				Arrivals: arrivals,
				QueueCap: qcap,
				Policy:   policy,
				Out:      w.out,
				Latency:  &lat,
			})
			p.Run(pipeCore(machine), cfgs)
			return &lat
		}
	}

	return []pipePlan{
		{
			name:   pipeAggPlan,
			stages: 2,
			choice: func(e *sweepEnv) pipeline.PlanChoice { return aggTwin(e).choice },
			run: func(e *sweepEnv, cfgs []pipeline.StageConfig) pipeCell {
				c := pipeCore(machine)
				freshAgg(true).Build(nil).Run(c, cfgs)
				return pipeCell{cycles: c.Cycle(), rows: aggProbe.Len()}
			},
			adaptive: func(e *sweepEnv) pipeCell {
				c := pipeCore(machine)
				freshAgg(true).Build(nil).RunAdaptive(c, newCtls(c, 2))
				return pipeCell{cycles: c.Cycle(), rows: aggProbe.Len()}
			},
		},
		{
			name:     pipeBSTPlan,
			stages:   2,
			choice:   func(e *sweepEnv) pipeline.PlanChoice { return bstWL(e).choice },
			run:      runCached(bstWL),
			adaptive: adaptCached(bstWL, 2),
			serving:  serveCached(bstWL),
			observed: runCachedObserved(bstWL),
		},
		{
			name:     pipeChainPlan,
			stages:   3,
			mixed:    true,
			choice:   func(e *sweepEnv) pipeline.PlanChoice { return chainWL(e).choice },
			run:      runCached(chainWL),
			adaptive: adaptCached(chainWL, 3),
			observed: runCachedObserved(chainWL),
		},
	}
}

// pipeCombos enumerates every per-stage technique assignment at the given
// window — the exhaustive static sweep the planner is judged against.
func pipeCombos(stages, window int) [][]pipeline.StageConfig {
	total := 1
	for s := 0; s < stages; s++ {
		total *= len(ops.Techniques)
	}
	combos := make([][]pipeline.StageConfig, total)
	for i := range combos {
		cfgs := make([]pipeline.StageConfig, stages)
		x := i
		for s := 0; s < stages; s++ {
			cfgs[s] = pipeline.StageConfig{Tech: ops.Techniques[x%len(ops.Techniques)], Window: window}
			x /= len(ops.Techniques)
		}
		combos[i] = cfgs
	}
	return combos
}

// pipeComboLabel renders "tech→tech→tech".
func pipeComboLabel(cfgs []pipeline.StageConfig) string {
	parts := make([]string, len(cfgs))
	for i, c := range cfgs {
		parts[i] = c.Tech.String()
	}
	return strings.Join(parts, "→")
}

// uniformTech returns the technique if every stage uses it (ok=false for a
// genuinely mixed assignment).
func uniformTech(cfgs []pipeline.StageConfig) (ops.Technique, bool) {
	for _, c := range cfgs[1:] {
		if c.Tech != cfgs[0].Tech {
			return 0, false
		}
	}
	return cfgs[0].Tech, true
}

const (
	pipeBestCol    = "Best static"
	pipePlannerCol = "Planner"
)

// pipeServeLoads are the offered loads of the pipeN serving table, as
// fractions of the mixed plan's measured uniform-AMAC batch capacity.
var pipeServeLoads = []float64{0.6, 0.9}

// pipeN measures the streaming pipeline layer end to end on three
// multi-operator plans: a charged build→probe→aggregate, a probe feeding a
// BST filter, and a 3-way join chain whose middle stage is a cache-resident
// dimension join (the mixed-regime plan).
// Every plan runs under every static per-stage technique assignment
// (exhaustively — 4^stages combinations), under the cost-seeded
// mini-planner's assignment, and under fully adaptive per-stage controllers.
// The main table reports cycles per root row; uniform assignments get their
// own columns, the best exhaustive assignment and the planner close the
// comparison. The acceptance shape — planner within 5% of the best static
// assignment on the steady plans and ahead of every uniform assignment on
// the mixed plan — is asserted by the shape tests on a scaled hierarchy.
//
// The companion pipeN-plan table reports what planning cost and how close it
// landed; pipeN-serve serves the mixed plan through its admission queue at a
// load sweep and reports end-to-end (arrival→sink) p99 latency per
// assignment. All cells are independent and fan out over -parallel sweep
// workers bit-identically.
func pipeN(cfg Config) []*table.Table {
	sz := cfg.sizes()
	ps := pipeSizes{rows: sz.pipeRows, build: sz.pipeBuild, dim: sz.pipeDim, bst: sz.pipeBST, groups: sz.pipeGroups, sample: sz.pipeSample}
	machine := memsim.XeonX5670()
	plans := pipePlans(machine, ps, cfg.seed(), adaptConfig(sz))
	// The -plans filter was validated at the CLI boundary; an invalid filter
	// reaching this far is a programming error, so it just runs everything.
	if sel, err := selectPipePlans(cfg.Plans); err == nil && sel != nil {
		kept := plans[:0]
		for _, p := range plans {
			if sel[p.name] {
				kept = append(kept, p)
			}
		}
		plans = kept
	}
	window := cfg.window()

	rows := make([]string, len(plans))
	for i, p := range plans {
		rows[i] = p.name
	}
	cols := append(append([]string(nil), techColumns...), pipeBestCol, pipePlannerCol, adaptiveCol)
	main := table.New("pipeN", "Streaming pipelines: per-stage assignment versus plan cost (Xeon)", "cycles/row", rows, cols)
	main.AddNote("uniform columns assign one technique to every stage; %q is the best of all 4^stages per-stage assignments; the planner's per-stage choice comes from a %d-row cost-seeded sample", pipeBestCol, ps.sample)
	main.AddNote("|S| = 2^%d root rows, build tables 2^%d, mixed-plan dimension table 2^%d keys (cache-resident), BST 2^%d keys, scale %q, seed %d",
		log2(ps.rows), log2(ps.build), log2(ps.dim), log2(ps.bst), cfg.scale(), cfg.seed())

	planCols := []string{"stages", "sample rows", "plan Mcycles", "planner ÷ best static", "best uniform ÷ planner"}
	planTab := table.New("pipeN-plan", "Mini-planner choice quality and cost per plan", "", rows, planCols)
	planTab.AddNote("planner ÷ best static near 1.0 means the sampled choice matches the exhaustive sweep; best uniform ÷ planner above 1.0 means the planner beats every uniform assignment")

	// Enumerate the sweep cells: every static combination, the planner's
	// assignment, and the adaptive run, for every plan.
	type cellID struct {
		plan  int
		combo int // index into combos; -1 planner, -2 adaptive
	}
	var (
		cells  []cellID
		tasks  []func(*sweepEnv) pipeCell
		combos = make([][][]pipeline.StageConfig, len(plans))
	)
	for pi, p := range plans {
		pi, p := pi, p
		combos[pi] = pipeCombos(p.stages, window)
		for ci, cc := range combos[pi] {
			ci, cc := ci, cc
			cells = append(cells, cellID{pi, ci})
			tasks = append(tasks, func(e *sweepEnv) pipeCell { return p.run(e, cc) })
		}
		cells = append(cells, cellID{pi, -1})
		tasks = append(tasks, func(e *sweepEnv) pipeCell { return p.run(e, p.choice(e).Configs) })
		cells = append(cells, cellID{pi, -2})
		tasks = append(tasks, func(e *sweepEnv) pipeCell { return p.adaptive(e) })
	}

	results := runSweep(cfg, tasks)

	perPlanStatic := make([][]float64, len(plans))
	for i := range perPlanStatic {
		perPlanStatic[i] = make([]float64, len(combos[i]))
	}
	planner := make([]float64, len(plans))
	adaptive := make([]float64, len(plans))
	for i, res := range results {
		id := cells[i]
		switch {
		case id.combo == -1:
			planner[id.plan] = res.cyclesPerRow()
		case id.combo == -2:
			adaptive[id.plan] = res.cyclesPerRow()
		default:
			perPlanStatic[id.plan][id.combo] = res.cyclesPerRow()
		}
	}

	for pi, p := range plans {
		best, bestIdx := 0.0, 0
		bestUniform := 0.0
		for ci, v := range perPlanStatic[pi] {
			if ci == 0 || v < best {
				best, bestIdx = v, ci
			}
			if tech, ok := uniformTech(combos[pi][ci]); ok {
				main.Set(p.name, tech.String(), v)
				if bestUniform == 0 || v < bestUniform {
					bestUniform = v
				}
			}
		}
		main.Set(p.name, pipeBestCol, best)
		main.Set(p.name, pipePlannerCol, planner[pi])
		main.Set(p.name, adaptiveCol, adaptive[pi])
		main.AddNote("%s: best static is %s; planner chose %s", p.name, pipeComboLabel(combos[pi][bestIdx]), defaultEnv.planChoiceLabel(p))

		planTab.Set(p.name, "stages", float64(p.stages))
		planTab.Set(p.name, "sample rows", float64(defaultEnv.planChoice(p).SampleRows))
		planTab.Set(p.name, "plan Mcycles", float64(defaultEnv.planChoice(p).PlanCycles)/1e6)
		planTab.Set(p.name, "planner ÷ best static", planner[pi]/best)
		planTab.Set(p.name, "best uniform ÷ planner", bestUniform/planner[pi])
	}

	tables := []*table.Table{main, planTab}
	if st := pipeServeTable(cfg, machine, plans); st != nil {
		tables = append(tables, st)
	}

	// The designated cell: one extra run of the mixed plan (or the last
	// observable plan a -plans filter kept) under the planner's assignment,
	// with the sinks attached. Re-running after the sweep keeps every table
	// byte-identical with or without sinks, and running it serially on
	// defaultEnv keeps the exports deterministic under -parallel.
	if cfg.Sinks != (obs.Sinks{}) {
		var op *pipePlan
		for i := range plans {
			if plans[i].observed == nil {
				continue
			}
			if op == nil || plans[i].mixed {
				op = &plans[i]
			}
		}
		if op != nil {
			op.observed(defaultEnv, defaultEnv.planChoice(*op).Configs, cfg.Sinks)
		}
	}
	return tables
}

// planChoice reads a plan's cached mini-planner choice through this
// environment's workload set (materializing on first use).
func (e *sweepEnv) planChoice(p pipePlan) pipeline.PlanChoice { return p.choice(e) }

// planChoiceLabel renders a plan's choice for table notes.
func (e *sweepEnv) planChoiceLabel(p pipePlan) string {
	cfgs := e.planChoice(p).Configs
	parts := make([]string, len(cfgs))
	for i, c := range cfgs {
		parts[i] = c.String()
	}
	return strings.Join(parts, "→")
}

// pipeServeTable serves the probe→BST filter plan through its admission
// queue: Poisson (or -arrivals) open-loop arrivals at fractions of the plan's
// uniform-AMAC batch capacity, one run per static uniform assignment plus the
// planner's, reporting end-to-end (arrival→sink completion) p99 latency. It
// returns nil when a -plans filter excluded every served plan.
func pipeServeTable(cfg Config, machine memsim.Config, plans []pipePlan) *table.Table {
	var served pipePlan
	for _, p := range plans {
		if p.serving != nil {
			served = p
		}
	}
	if served.serving == nil {
		return nil
	}
	window := cfg.window()
	policy := queuePolicy(cfg)

	// Calibrate the load axis serially against uniform AMAC batch cycles on
	// this plan — every sweep worker then derives the same schedules.
	amacCfgs := make([]pipeline.StageConfig, served.stages)
	for i := range amacCfgs {
		amacCfgs[i] = pipeline.StageConfig{Tech: ops.AMAC, Window: window}
	}
	batch := served.run(defaultEnv, amacCfgs)
	capacity := float64(batch.rows) / float64(batch.cycles) // req/cycle

	rows := make([]string, len(pipeServeLoads))
	for i, l := range pipeServeLoads {
		rows[i] = loadLabel(l)
	}
	cols := append(append([]string(nil), techColumns...), pipePlannerCol)
	t := table.New("pipeN-serve", "Served pipeline: end-to-end p99 latency per assignment (Xeon)", "kcycles", rows, cols)
	t.AddNote("plan %q; rows: offered load as a fraction of uniform AMAC's batch capacity (%.4f req/cycle); %s arrivals, %s queue; latency spans admission through sink completion",
		served.name, capacity, arrivalsName(cfg), policyLabel(policy, cfg.QueueCap))

	type cell struct {
		load float64
		col  string
	}
	var cells []cell
	var tasks []func(*sweepEnv) *serve.Recorder
	for _, load := range pipeServeLoads {
		period := 1 / (load * capacity)
		for _, tech := range ops.Techniques {
			load, tech := load, tech
			cfgs := make([]pipeline.StageConfig, served.stages)
			for i := range cfgs {
				cfgs[i] = pipeline.StageConfig{Tech: tech, Window: window}
			}
			cells = append(cells, cell{load, tech.String()})
			tasks = append(tasks, func(e *sweepEnv) *serve.Recorder {
				arr := cachedArrivalSchedule(arrivalsName(cfg), period, batch.rows, cfg.seed()+1)
				return served.serving(e, arr, cfg.QueueCap, policy, cfgs)
			})
		}
		load := load
		cells = append(cells, cell{load, pipePlannerCol})
		tasks = append(tasks, func(e *sweepEnv) *serve.Recorder {
			arr := cachedArrivalSchedule(arrivalsName(cfg), period, batch.rows, cfg.seed()+1)
			return served.serving(e, arr, cfg.QueueCap, policy, e.planChoice(served).Configs)
		})
	}
	for i, rec := range runSweep(cfg, tasks) {
		t.Set(loadLabel(cells[i].load), cells[i].col, float64(rec.P99())/1000)
	}
	return t
}
