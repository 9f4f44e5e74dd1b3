package pipeline

import (
	"testing"

	"amac/internal/adapt"
	"amac/internal/arena"
	"amac/internal/bst"
	"amac/internal/exec"
	"amac/internal/ht"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/serve"
)

func newCore() *memsim.Core {
	return memsim.MustSystem(memsim.XeonX5670()).NewCore()
}

// keyedRel builds a relation with explicit per-tuple payloads.
func keyedRel(name string, n int, key func(i int) uint64, pay func(i int) uint64) *relation.Relation {
	tup := make([]relation.Tuple, n)
	for i := range tup {
		tup[i] = relation.Tuple{Key: key(i), Payload: pay(i)}
	}
	return &relation.Relation{Name: name, Tuples: tup}
}

// chainWorkload is the 3-way foreign-key join chain test plan: probe keys
// look up T1, T1 payloads are keys into T2, T2 payloads keys into T3.
type chainWorkload struct {
	a          *arena.Arena
	t1, t2, t3 *ht.Table
	probe      *ops.Input
}

const chainN = 1 << 10

func newChainWorkload() *chainWorkload {
	a := arena.New()
	w := &chainWorkload{
		a:  a,
		t1: ht.New(a, chainN/ops.TuplesPerBucket),
		t2: ht.New(a, chainN/ops.TuplesPerBucket),
		t3: ht.New(a, chainN/ops.TuplesPerBucket),
	}
	for k := uint64(1); k <= chainN; k++ {
		w.t1.InsertRaw(k, (k*7)%chainN+1)
		w.t2.InsertRaw(k, (k*11)%chainN+1)
		w.t3.InsertRaw(k, k*1000)
	}
	// Half the probe keys miss T1 (keys above the build domain).
	probe := keyedRel("S", chainN,
		func(i int) uint64 { return uint64(i*2654435761)%(2*chainN) + 1 },
		func(i int) uint64 { return uint64(i) + 5 })
	w.probe = ops.NewInput(a, probe)
	return w
}

func (w *chainWorkload) builder() *Builder {
	b := NewBuilder(w.a)
	b.ScanProbe(w.t1, w.probe, true)
	b.Probe(w.t2, SelBuildPayload, true)
	b.Probe(w.t3, SelBuildPayload, true)
	return b
}

// seqChain executes the chain plan stage by stage with full materialization
// between operators (the non-pipelined execution every pipelined run must
// reproduce bit-for-bit, logically).
func (w *chainWorkload) seqChain(t *testing.T) (count, checksum uint64) {
	t.Helper()
	c := newCore()
	ref := arena.New()
	out1 := ops.NewOutput(ref, true)
	ops.RunMachine(c, &ops.ProbeMachine{Table: w.t1, In: w.probe, Out: out1, EarlyExit: true}, ops.Baseline, ops.Params{})

	out2 := ops.NewOutput(ref, true)
	m2 := &ops.ProbeMachine{Table: w.t2, Out: out2, EarlyExit: true}
	ops.RunMachine(c, &rowsMachine[ops.ProbeState]{
		rows: out1.Rows,
		initRow: func(c *memsim.Core, s *ops.ProbeState, r Row) exec.Outcome {
			return m2.InitKey(c, s, r.RID, r.BuildPayload, r.ProbePayload)
		},
		stage: m2.Stage, provision: 2,
	}, ops.Baseline, ops.Params{})

	out3 := ops.NewOutput(ref, false)
	m3 := &ops.ProbeMachine{Table: w.t3, Out: out3, EarlyExit: true}
	ops.RunMachine(c, &rowsMachine[ops.ProbeState]{
		rows: out2.Rows,
		initRow: func(c *memsim.Core, s *ops.ProbeState, r Row) exec.Outcome {
			return m3.InitKey(c, s, r.RID, r.BuildPayload, r.ProbePayload)
		},
		stage: m3.Stage, provision: 2,
	}, ops.Baseline, ops.Params{})
	return out3.Count, out3.Checksum
}

// TestPipelineChainMatchesSequential is the tentpole's correctness
// contract: the streamed 3-way join chain produces exactly the output of
// sequential materialized stage-at-a-time execution, under every per-stage
// technique assignment (all 64 combinations).
func TestPipelineChainMatchesSequential(t *testing.T) {
	w := newChainWorkload()
	wantCount, wantSum := w.seqChain(t)
	if wantCount == 0 {
		t.Fatal("degenerate chain: no results")
	}

	b := w.builder()
	out := ops.NewOutput(w.a, false)
	for _, t1 := range ops.Techniques {
		for _, t2 := range ops.Techniques {
			for _, t3 := range ops.Techniques {
				out.Reset()
				p := b.Build(out)
				res := p.Run(newCore(), []StageConfig{{Tech: t1}, {Tech: t2}, {Tech: t3}})
				if out.Count != wantCount || out.Checksum != wantSum {
					t.Fatalf("%v/%v/%v: count=%d sum=%x, want %d/%x",
						t1, t2, t3, out.Count, out.Checksum, wantCount, wantSum)
				}
				if res.Stages[0].RowsIn != chainN {
					t.Fatalf("root rows %d, want %d", res.Stages[0].RowsIn, chainN)
				}
				if res.Stages[1].RowsIn != res.Stages[0].RowsOut || res.Stages[2].RowsIn != res.Stages[1].RowsOut {
					t.Fatalf("pipe accounting inconsistent: %+v", res.Stages)
				}
			}
		}
	}
}

// bstWorkload is the probe→tree-filter test plan: a small dimension probe
// whose matches are filtered through a BST semi-join.
type bstWorkload struct {
	a     *arena.Arena
	dim   *ht.Table
	tree  *bst.Tree
	probe *ops.Input
}

const bstDimN, bstTreeN, bstProbeN = 1 << 8, 1 << 11, 1 << 11

// bstTables populates a dimension table and BST in arena a. Content is
// identical for every caller, which is what lets the parallel serving test
// hand each worker a private copy (arenas are not shareable, even read-only).
func bstTables(a *arena.Arena) (*ht.Table, *bst.Tree) {
	dim := ht.New(a, bstDimN/ops.TuplesPerBucket)
	tree := bst.New(a)
	for k := uint64(1); k <= bstDimN; k++ {
		// Dimension payloads land in the tree's key domain about half the
		// time, so the filter actually filters.
		dim.InsertRaw(k, (k*7919)%(2*bstTreeN)+1)
	}
	// Shuffled insert order for a balanced-ish random BST.
	for i := 0; i < bstTreeN; i++ {
		k := uint64(i*2654435761)%(2*bstTreeN) + 1
		tree.Insert(k, k+13)
	}
	return dim, tree
}

func newBSTWorkload() *bstWorkload {
	a := arena.New()
	w := &bstWorkload{a: a}
	w.dim, w.tree = bstTables(a)
	probe := keyedRel("S", bstProbeN,
		func(i int) uint64 { return uint64(i)%bstDimN + 1 },
		func(i int) uint64 { return uint64(i) })
	w.probe = ops.NewInput(a, probe)
	return w
}

func (w *bstWorkload) builder() *Builder {
	b := NewBuilder(w.a)
	b.ScanProbe(w.dim, w.probe, true)
	b.BSTFilter(w.tree, SelBuildPayload)
	return b
}

func (w *bstWorkload) seq(t *testing.T) (count, checksum uint64) {
	t.Helper()
	c := newCore()
	ref := arena.New()
	out1 := ops.NewOutput(ref, true)
	ops.RunMachine(c, &ops.ProbeMachine{Table: w.dim, In: w.probe, Out: out1, EarlyExit: true}, ops.Baseline, ops.Params{})

	out2 := ops.NewOutput(ref, false)
	m2 := &ops.BSTSearchMachine{Tree: w.tree, Out: out2}
	ops.RunMachine(c, &rowsMachine[ops.BSTState]{
		rows: out1.Rows,
		initRow: func(c *memsim.Core, s *ops.BSTState, r Row) exec.Outcome {
			return m2.InitKey(c, s, r.RID, r.BuildPayload, r.ProbePayload)
		},
		stage: m2.Stage, provision: m2.ProvisionedStages(),
	}, ops.Baseline, ops.Params{})
	return out2.Count, out2.Checksum
}

// TestPipelineBSTFilterMatchesSequential: second plan shape, all 16
// technique combinations.
func TestPipelineBSTFilterMatchesSequential(t *testing.T) {
	w := newBSTWorkload()
	wantCount, wantSum := w.seq(t)
	if wantCount == 0 {
		t.Fatal("degenerate filter: no results")
	}
	b := w.builder()
	out := ops.NewOutput(w.a, false)
	for _, t1 := range ops.Techniques {
		for _, t2 := range ops.Techniques {
			out.Reset()
			p := b.Build(out)
			p.Run(newCore(), []StageConfig{{Tech: t1}, {Tech: t2}})
			if out.Count != wantCount || out.Checksum != wantSum {
				t.Fatalf("%v/%v: count=%d sum=%x, want %d/%x", t1, t2, out.Count, out.Checksum, wantCount, wantSum)
			}
		}
	}
}

// aggWorkload is the build→probe→aggregate test plan, with the build phase
// running as a charged pipeline prelude.
type aggWorkload struct {
	a     *arena.Arena
	table *ht.Table
	agg   *ht.AggTable
	build *ops.Input
	probe *ops.Input
}

func newAggWorkload() *aggWorkload {
	const buildN, groups = 1 << 10, 64
	a := arena.New()
	w := &aggWorkload{a: a, table: ht.New(a, buildN/ops.TuplesPerBucket), agg: ht.NewAgg(a, groups)}
	// Build payload IS the group id: the aggregation downstream groups by it.
	brel := keyedRel("R", buildN,
		func(i int) uint64 { return uint64(i) + 1 },
		func(i int) uint64 { return uint64(i % groups) })
	prel := keyedRel("S", 1<<11,
		func(i int) uint64 { return uint64(i*31)%(2*buildN) + 1 },
		func(i int) uint64 { return uint64(i) * 3 })
	w.build = ops.NewInput(a, brel)
	w.probe = ops.NewInput(a, prel)
	return w
}

func (w *aggWorkload) builder() *Builder {
	b := NewBuilder(w.a)
	b.PreludeBuild(w.table, w.build)
	b.ScanProbe(w.table, w.probe, true)
	b.Aggregate(w.agg, SelBuildPayload)
	return b
}

// seqAgg executes build, probe and aggregation as separate materialized
// phases into fresh twins and returns the reference groups.
func seqAgg(t *testing.T) []ht.Aggregates {
	t.Helper()
	w := newAggWorkload()
	c := newCore()
	ops.RunMachine(c, &ops.BuildMachine{Table: w.table, In: w.build}, ops.Baseline, ops.Params{})
	ref := arena.New()
	out := ops.NewOutput(ref, true)
	ops.RunMachine(c, &ops.ProbeMachine{Table: w.table, In: w.probe, Out: out, EarlyExit: true}, ops.Baseline, ops.Params{})
	m := &ops.GroupByMachine{Table: w.agg}
	ops.RunMachine(c, &rowsMachine[ops.GroupByState]{
		rows: out.Rows,
		initRow: func(c *memsim.Core, s *ops.GroupByState, r Row) exec.Outcome {
			return m.InitKey(c, s, r.RID, r.BuildPayload, r.ProbePayload)
		},
		stage: m.Stage, provision: 3,
	}, ops.Baseline, ops.Params{})
	return w.agg.Groups()
}

func groupsEqual(a, b []ht.Aggregates) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[uint64]ht.Aggregates, len(a))
	for _, g := range a {
		am[g.Key] = g
	}
	for _, g := range b {
		if am[g.Key] != g {
			return false
		}
	}
	return true
}

// TestPipelineAggregateMatchesSequential: the build→probe→aggregate plan
// (charged build prelude included) folds exactly the reference groups, for
// all 16 probe/aggregate technique combinations. Each combination gets a
// fresh materialization because both the build and the aggregation mutate.
func TestPipelineAggregateMatchesSequential(t *testing.T) {
	want := seqAgg(t)
	if len(want) == 0 {
		t.Fatal("degenerate aggregation: no groups")
	}
	for _, t1 := range ops.Techniques {
		for _, t2 := range ops.Techniques {
			w := newAggWorkload()
			p := w.builder().Build(nil)
			p.Run(newCore(), []StageConfig{{Tech: t1}, {Tech: t2}})
			if got := w.agg.Groups(); !groupsEqual(got, want) {
				t.Fatalf("%v/%v: groups differ (%d vs %d)", t1, t2, len(got), len(want))
			}
		}
	}
}

// TestPipelineStaticRunsAreDeterministic: identical rebuilds give identical
// cycle counts, the foundation of the sweep layer's bit-identical contract.
func TestPipelineStaticRunsAreDeterministic(t *testing.T) {
	w := newChainWorkload()
	b := w.builder()
	out := ops.NewOutput(w.a, false)
	cfgs := []StageConfig{{Tech: ops.AMAC, Window: 8}, {Tech: ops.GP, Window: 6}, {Tech: ops.Baseline}}
	run := func() (uint64, uint64) {
		out.Reset()
		c := newCore()
		b.Build(out).Run(c, cfgs)
		return c.Cycle(), out.Checksum
	}
	cy1, sum1 := run()
	cy2, sum2 := run()
	if cy1 != cy2 || sum1 != sum2 {
		t.Fatalf("reruns differ: %d/%x vs %d/%x", cy1, sum1, cy2, sum2)
	}
}

// TestPipelineBackpressureTinyPipes: a pipe bound far below the row volume
// must still stream everything (the gate closes, the upstream engine drains,
// the sink pulls through) with unchanged output.
func TestPipelineBackpressureTinyPipes(t *testing.T) {
	w := newChainWorkload()
	wantCount, wantSum := w.seqChain(t)
	b := w.builder().PipeCap(5)
	b.burst = 4 // pump lease: admissions per upstream lease
	out := ops.NewOutput(w.a, false)
	p := b.Build(out)
	p.Run(newCore(), []StageConfig{{Tech: ops.AMAC}, {Tech: ops.AMAC}, {Tech: ops.AMAC}})
	if out.Count != wantCount || out.Checksum != wantSum {
		t.Fatalf("count=%d sum=%x, want %d/%x", out.Count, out.Checksum, wantCount, wantSum)
	}
	for i, pp := range p.pipes {
		if pp.depth() != 0 {
			t.Fatalf("pipe %d still holds %d rows", i, pp.depth())
		}
		if pp.pushed != pp.popped {
			t.Fatalf("pipe %d pushed %d popped %d", i, pp.pushed, pp.popped)
		}
	}
}

// TestPipelineAdaptiveMatchesStatic: per-stage adaptive execution serves
// every row exactly once — identical logical output — and is deterministic.
func TestPipelineAdaptiveMatchesStatic(t *testing.T) {
	w := newChainWorkload()
	wantCount, wantSum := w.seqChain(t)
	b := w.builder()
	out := ops.NewOutput(w.a, false)
	acfg := adapt.Config{RetuneRequests: 64, ProbeRequests: 16}
	run := func() (uint64, uint64, uint64) {
		out.Reset()
		c := newCore()
		ctls := make([]*adapt.Controller, 3)
		for i := range ctls {
			ctls[i] = adapt.NewControllerFor(c, acfg)
		}
		b.Build(out).RunAdaptive(c, ctls)
		return out.Count, out.Checksum, c.Cycle()
	}
	count, sum, cy := run()
	if count != wantCount || sum != wantSum {
		t.Fatalf("adaptive: count=%d sum=%x, want %d/%x", count, sum, wantCount, wantSum)
	}
	count2, sum2, cy2 := run()
	if count2 != count || sum2 != sum || cy2 != cy {
		t.Fatal("adaptive pipeline runs must be deterministic")
	}
}

// TestPipelineSingleUse: a Pipeline refuses to run twice.
func TestPipelineSingleUse(t *testing.T) {
	w := newBSTWorkload()
	out := ops.NewOutput(w.a, false)
	p := w.builder().Build(out)
	cfgs := []StageConfig{{Tech: ops.Baseline}, {Tech: ops.Baseline}}
	p.Run(newCore(), cfgs)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run must panic")
		}
	}()
	p.Run(newCore(), cfgs)
}

// TestPlannerProducesValidDeterministicChoice: the mini-planner assigns one
// config per stage, picks only real techniques, caches its choice, and is
// deterministic across builders over identical workloads.
func TestPlannerProducesValidDeterministicChoice(t *testing.T) {
	hw := memsim.XeonX5670()
	plan := func() PlanChoice {
		w := newBSTWorkload()
		return w.builder().Plan(hw, 256, adapt.Config{})
	}
	pc := plan()
	if len(pc.Configs) != 2 {
		t.Fatalf("%d configs for 2 stages", len(pc.Configs))
	}
	for _, cfg := range pc.Configs {
		valid := false
		for _, tech := range ops.Techniques {
			if cfg.Tech == tech {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("invalid technique %v", cfg.Tech)
		}
	}
	if pc.PlanCycles == 0 {
		t.Fatal("planning cost must be accounted")
	}
	pc2 := plan()
	for i := range pc.Configs {
		if pc.Configs[i] != pc2.Configs[i] {
			t.Fatalf("planner not deterministic: %v vs %v", pc, pc2)
		}
	}

	// The cached choice comes back without re-planning.
	w := newBSTWorkload()
	b := w.builder()
	first := b.Plan(hw, 256, adapt.Config{})
	again := b.Plan(hw, 999, adapt.Config{})
	if first.SampleRows != again.SampleRows || first.PlanCycles != again.PlanCycles {
		t.Fatal("second Plan call must return the cached choice")
	}

	// A planned pipeline still produces the reference output.
	wantCount, wantSum := w.seq(t)
	out := ops.NewOutput(w.a, false)
	b.Build(out).Run(newCore(), first.Configs)
	if out.Count != wantCount || out.Checksum != wantSum {
		t.Fatalf("planned run: count=%d sum=%x, want %d/%x", out.Count, out.Checksum, wantCount, wantSum)
	}
}

// TestPipelineServingEndToEndLatency: a served pipeline completes every
// surviving row at the sink, records end-to-end (arrival→sink) latencies,
// and produces the batch run's output.
func TestPipelineServingEndToEndLatency(t *testing.T) {
	w := newBSTWorkload()
	wantCount, wantSum := w.seq(t)

	arrivals := serve.Poisson{MeanPeriod: 400}.Schedule(w.probe.Len(), 11)
	var lat, queue serve.Recorder
	out := ops.NewOutput(w.a, false)
	p := w.builder().BuildServing(ServingSpec{
		Arrivals: arrivals,
		QueueCap: 64,
		Policy:   serve.Block,
		Out:      out,
		Latency:  &lat,
		Queue:    &queue,
	})
	res := p.Run(newCore(), []StageConfig{{Tech: ops.AMAC}, {Tech: ops.AMAC}})

	if out.Count != wantCount || out.Checksum != wantSum {
		t.Fatalf("served output: count=%d sum=%x, want %d/%x", out.Count, out.Checksum, wantCount, wantSum)
	}
	// One latency record per request the sink finished: every row the root
	// stage emitted downstream.
	if lat.Completed != res.Stages[0].RowsOut || lat.Completed == 0 {
		t.Fatalf("latency recorder saw %d completions, want one per sink-served row (%d)", lat.Completed, res.Stages[0].RowsOut)
	}
	if queue.Offered != uint64(len(arrivals)) {
		t.Fatalf("queue offered %d of %d", queue.Offered, len(arrivals))
	}
	if lat.P99() < lat.Quantile(0.5) {
		t.Fatal("p99 below p50")
	}
	// End-to-end latency covers strictly more than the root operator alone.
	if lat.MeanLatency() <= queue.MeanLatency() {
		t.Fatalf("end-to-end mean %.0f not above root-stage mean %.0f", lat.MeanLatency(), queue.MeanLatency())
	}
}

// TestPipelineServeParallelDeterministic: multi-worker pipelined serving is
// deterministic across goroutine schedules; run under -race this doubles as
// the pipelined-serving race check. Each worker owns a fully PRIVATE arena —
// its own copy of the dimension table and tree plus its probe partition —
// because an Arena is unsafe to share even read-only (every access updates
// its chunk cache); this mirrors ops.PartitionJoin's private-arena-per-worker
// model.
func TestPipelineServeParallelDeterministic(t *testing.T) {
	const workers = 2
	const half = bstProbeN / workers
	hw := memsim.XeonX5670()

	run := func() ([workers]uint64, [workers]uint64, uint64) {
		var counts, sums [workers]uint64
		var p99 uint64
		pipes := make([]*Pipeline, workers)
		outs := make([]*ops.Output, workers)
		lats := make([]*serve.Recorder, workers)
		for i := 0; i < workers; i++ {
			// Everything this worker touches — tables, input partition, pipe
			// windows, sink — lives in its own arena, rebuilt identically per
			// run so both runs see the same addresses.
			a := arena.New()
			dim, tree := bstTables(a)
			part := ops.NewInput(a, keyedRel("S", half,
				func(j int) uint64 { return uint64(i*half+j)%bstDimN + 1 },
				func(j int) uint64 { return uint64(i*half + j) }))
			b := NewBuilder(a)
			b.ScanProbe(dim, part, true)
			b.BSTFilter(tree, SelBuildPayload)
			outs[i] = ops.NewOutput(a, false)
			outs[i].Sequential = true
			lats[i] = &serve.Recorder{}
			pipes[i] = b.BuildServing(ServingSpec{
				Arrivals: serve.Deterministic{Period: 300}.Schedule(half, 0),
				Out:      outs[i],
				Latency:  lats[i],
			})
		}
		cores := make([]*memsim.Core, workers)
		for i := range cores {
			cores[i] = memsim.MustSystem(hw.ShareLLC(workers)).NewCore()
		}
		exec.RunParallel(cores, func(wk int, c *memsim.Core) {
			pipes[wk].Run(c, []StageConfig{{Tech: ops.AMAC}, {Tech: ops.AMAC}})
		})
		var merged serve.Recorder
		for i := 0; i < workers; i++ {
			counts[i] = outs[i].Count
			sums[i] = outs[i].Checksum
			merged.Merge(lats[i])
		}
		p99 = merged.P99()
		return counts, sums, p99
	}

	c1, s1, p1 := run()
	c2, s2, p2 := run()
	if c1 != c2 || s1 != s2 || p1 != p2 {
		t.Fatalf("parallel serving not deterministic: %v/%v vs %v/%v (p99 %d vs %d)", c1, s1, c2, s2, p1, p2)
	}
	for i := 0; i < workers; i++ {
		if c1[i] == 0 {
			t.Fatalf("worker %d produced nothing", i)
		}
	}
}
