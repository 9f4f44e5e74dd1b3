// Package pipeline composes the operator machines into streaming
// multi-operator query plans: a chain of stages (hash-join probes, a
// binary-search-tree filter, a group-by aggregation) in which intermediate
// rows flow through small bounded pipes instead of being materialized between
// operators.
//
// Each stage wraps one operator machine behind one execution engine —
// Baseline, GP, SPP or AMAC, chosen per stage — and the engines compose
// through the exec.Source pull interface: the sink stage's engine drives the
// whole plan, and a stage whose pipe runs dry pumps its upstream neighbour
// for a bounded, backpressured lease of its engine. Admission backpressure
// therefore propagates upstream (a full pipe closes the pump's gate; the
// upstream engine drains its in-flight lookups and hands control back), and
// the sink alone idles on open-loop arrival gaps.
//
// Because different operators in one plan can sit in different regimes — a
// cache-resident dimension probe wants the baseline's lean loop while a
// DRAM-resident tree filter wants AMAC's memory-level parallelism — the
// package includes a cost-seeded mini-planner (Builder.Plan): it streams a
// small row sample through the plan, replays each stage's sample under the
// adaptive controller's probe machinery, and emits a per-stage technique and
// window assignment. Fully adaptive execution (one controller per stage,
// retuning online) is available as Pipeline.RunAdaptive.
package pipeline

import (
	"fmt"

	"amac/internal/adapt"
	"amac/internal/arena"
	"amac/internal/bst"
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/ht"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/serve"
)

// StageConfig selects one stage's engine: the technique and its in-flight
// window (GP/SPP group size or AMAC starting width; zero selects the engine
// default).
type StageConfig struct {
	Tech   ops.Technique
	Window int
}

// String renders "tech/window".
func (sc StageConfig) String() string {
	if sc.Window <= 0 {
		return sc.Tech.String()
	}
	return fmt.Sprintf("%s/%d", sc.Tech, sc.Window)
}

// KeySel says which field of the upstream row a stage looks up.
type KeySel int

const (
	// SelKey probes with the upstream row's join key.
	SelKey KeySel = iota
	// SelBuildPayload probes with the matched build-side payload — the
	// foreign-key chain of a multi-way join, where the payload of one probe
	// is the key into the next table.
	SelBuildPayload
	// SelProbePayload probes with the probe-side payload carried unchanged
	// from the root relation — an attribute of the original row, so a later
	// stage can join on it regardless of what the stages in between matched.
	SelProbePayload
)

// of extracts the selected key from a row.
func (s KeySel) of(r Row) uint64 {
	switch s {
	case SelBuildPayload:
		return r.BuildPayload
	case SelProbePayload:
		return r.ProbePayload
	}
	return r.Key
}

// stageKind enumerates the operators a stage can wrap.
type stageKind int

const (
	kindScanProbe stageKind = iota
	kindProbe
	kindBST
	kindAggregate
)

// stageDef is one declared stage, recorded by the Builder until Build wires
// the concrete machines.
type stageDef struct {
	kind      stageKind
	table     *ht.Table
	tree      *bst.Tree
	agg       *ht.AggTable
	in        *ops.Input
	sel       KeySel
	earlyExit bool
}

// label renders a stage's display name.
func (d stageDef) label(i int) string {
	switch d.kind {
	case kindScanProbe:
		return fmt.Sprintf("%d:scan-probe", i)
	case kindProbe:
		return fmt.Sprintf("%d:probe", i)
	case kindBST:
		return fmt.Sprintf("%d:bst-filter", i)
	default:
		return fmt.Sprintf("%d:aggregate", i)
	}
}

// Builder declares a pipeline plan and assembles runnable Pipeline instances
// from it. A Pipeline is single-use (its pipes and stage state are one run's
// worth), so sweeps build one per measured cell; the builder's charged pipe
// windows are allocated once and shared by every instance, which keeps the
// simulated address layout — and therefore the cycle counts — identical
// across rebuilds, exactly like Output.Reset.
//
// All referenced structures must live in the builder's arena: arenas share a
// base address, so structures from different arenas would alias in the cache
// model.
type Builder struct {
	a        *arena.Arena
	burst    int
	pipeCap  int
	defs     []stageDef
	preludes []struct {
		table *ht.Table
		in    *ops.Input
	}

	// windows are the pipes' charged arena spans, allocated at first build.
	windows []arena.Addr

	// scratch holds the planner's throwaway sink structures (see Plan).
	scratchOut *ops.Output
	scratchAgg *ht.AggTable

	choice *PlanChoice
}

// Default pump geometry: a pump lease admits up to defaultBurst upstream
// lookups, and a pipe buffers up to defaultPipeCap rows before backpressure
// closes the pump's gate.
const (
	defaultBurst   = 64
	defaultPipeCap = 128
)

// NewBuilder starts an empty plan over the given arena.
func NewBuilder(a *arena.Arena) *Builder {
	return &Builder{a: a, burst: defaultBurst, pipeCap: defaultPipeCap}
}

// Burst sets the pump lease size (admissions per upstream lease).
func (b *Builder) Burst(n int) *Builder {
	if n > 0 {
		b.burst = n
	}
	return b
}

// PipeCap sets the per-pipe row bound (the backpressure threshold). It must
// be set before the first Build: the charged pipe windows are sized to the
// capacity when they are allocated.
func (b *Builder) PipeCap(n int) *Builder {
	if len(b.windows) > 0 {
		panic("pipeline: PipeCap must be set before the first Build")
	}
	if n > 0 {
		b.pipeCap = n
	}
	return b
}

// PreludeBuild declares a charged hash-table build phase that runs on the
// measured core before the streaming plan starts: the build side of a
// build→probe pipeline. It always runs under AMAC with its width seeded from
// the core's measured MSHR budget — the build is a fixed prefix, not a
// planned stage.
func (b *Builder) PreludeBuild(t *ht.Table, in *ops.Input) *Builder {
	b.preludes = append(b.preludes, struct {
		table *ht.Table
		in    *ops.Input
	}{t, in})
	return b
}

// ScanProbe declares the root stage: a hash-join probe scanning a
// materialized input relation. Every plan starts with one.
func (b *Builder) ScanProbe(t *ht.Table, in *ops.Input, earlyExit bool) *Builder {
	b.defs = append(b.defs, stageDef{kind: kindScanProbe, table: t, in: in, earlyExit: earlyExit})
	return b
}

// Probe declares a downstream hash-join probe fed by the previous stage's
// rows, looking up the field sel selects.
func (b *Builder) Probe(t *ht.Table, sel KeySel, earlyExit bool) *Builder {
	b.defs = append(b.defs, stageDef{kind: kindProbe, table: t, sel: sel, earlyExit: earlyExit})
	return b
}

// BSTFilter declares a binary-search-tree semi-join stage: an upstream row
// survives (with the tree's payload attached) iff its selected key is in the
// tree.
func (b *Builder) BSTFilter(tree *bst.Tree, sel KeySel) *Builder {
	b.defs = append(b.defs, stageDef{kind: kindBST, tree: tree, sel: sel})
	return b
}

// Aggregate declares a group-by sink: upstream rows fold into the
// aggregation table, grouped by the selected field, aggregating the carried
// probe payload. It must be the last stage.
func (b *Builder) Aggregate(agg *ht.AggTable, sel KeySel) *Builder {
	b.defs = append(b.defs, stageDef{kind: kindAggregate, agg: agg, sel: sel})
	return b
}

// validate panics on a malformed plan.
func (b *Builder) validate() {
	if len(b.defs) == 0 {
		panic("pipeline: empty plan")
	}
	if b.defs[0].kind != kindScanProbe {
		panic("pipeline: plans start with ScanProbe")
	}
	for i, d := range b.defs[1:] {
		if d.kind == kindScanProbe {
			panic("pipeline: ScanProbe must be the root stage")
		}
		if d.kind == kindAggregate && i+1 != len(b.defs)-1 {
			panic("pipeline: Aggregate must be the sink stage")
		}
	}
}

// ensureWindows allocates the charged pipe windows once.
func (b *Builder) ensureWindows() {
	for len(b.windows) < len(b.defs)-1 {
		b.windows = append(b.windows, b.a.AllocSpan(pipeSlots(b.pipeCap)*pipeSlotBytes))
	}
}

// buildSpec parameterizes one Pipeline assembly.
type buildSpec struct {
	sinkOut   ops.Collector // sink collector (Probe/BST sinks)
	sinkAgg   *ht.AggTable  // aggregate-sink override (planner scratch)
	tapCap    int           // rows each pipe retains for the planner
	rootLimit int           // root input prefix (planner sampling)
	rootSkip  int           // root rows to skip (planner trial measure-half)
	serving   *ServingSpec
}

// Build assembles a batch pipeline whose sink emits into out (nil for a plan
// ending in Aggregate, whose results live in its table). The returned
// Pipeline is single-use.
func (b *Builder) Build(out ops.Collector) *Pipeline {
	return b.build(buildSpec{sinkOut: out})
}

// BuildServing assembles a serving pipeline: the root admits requests from
// the arrival schedule through a bounded queue, and the sink records
// end-to-end admission→completion latency. The returned Pipeline is
// single-use.
func (b *Builder) BuildServing(sv ServingSpec) *Pipeline {
	return b.build(buildSpec{sinkOut: sv.Out, serving: &sv})
}

// build wires the declared stages into a runnable Pipeline.
func (b *Builder) build(spec buildSpec) *Pipeline {
	b.validate()
	b.ensureWindows()
	n := len(b.defs)
	if b.defs[n-1].kind != kindAggregate && spec.sinkOut == nil {
		panic("pipeline: plan needs a sink collector (Build(out) or ServingSpec.Out)")
	}

	p := &Pipeline{burst: b.burst}
	for _, pr := range b.preludes {
		t, in := pr.table, pr.in
		p.prelude = append(p.prelude, func(c *memsim.Core) {
			core.Run(c, &ops.BuildMachine{Table: t, In: in}, core.Options{Width: c.MSHRBudget()})
		})
	}

	p.pipes = make([]*pipe, n-1)
	for i := range p.pipes {
		p.pipes[i] = newPipe(b.a, b.windows[i], b.pipeCap)
		p.pipes[i].idx = i
		p.pipes[i].tapCap = spec.tapCap
		if spec.serving != nil {
			arr := spec.serving.Arrivals
			p.pipes[i].admitOf = func(rid int) uint64 { return arr[rid] }
		}
	}

	for i, d := range b.defs {
		st := &stageExec{label: d.label(i)}
		if i > 0 {
			st.in = p.pipes[i-1]
		}
		var col ops.Collector
		if i < n-1 {
			st.out = p.pipes[i]
			col = p.pipes[i]
		} else {
			col = spec.sinkOut
		}
		var onDone func(req exec.Request, done uint64)
		if i == n-1 && spec.serving != nil && spec.serving.Latency != nil {
			rec := spec.serving.Latency
			onDone = func(req exec.Request, done uint64) { rec.RecordLatency(done - req.Admit) }
		}

		switch d.kind {
		case kindScanProbe:
			m := &ops.ProbeMachine{Table: d.table, In: d.in, Out: col, EarlyExit: d.earlyExit, Limit: spec.rootLimit}
			p.rootRows = m.NumLookups()
			if sv := spec.serving; sv != nil {
				if n < 2 {
					// The queue source's own recorder covers the root
					// operator; a one-stage plan is just serve.Run.
					panic("pipeline: serving plans need at least two stages")
				}
				qs := serve.NewQueueSource[ops.ProbeState](m, sv.Arrivals, sv.QueueCap, sv.Policy, sv.Queue)
				if len(sv.Arrivals) < p.rootRows {
					p.rootRows = len(sv.Arrivals)
				}
				p.rootDepth = qs.Depth
				wireRootStage[ops.ProbeState](st, qs, m, spec.rootLimit)
			} else {
				rootM := exec.Machine[ops.ProbeState](m)
				if skip := spec.rootSkip; skip > 0 {
					// A planner trial over the sample's measure half: lookups
					// [skip, NumLookups) with their original row ids.
					n := m.NumLookups()
					if skip > n {
						skip = n
					}
					rootM = exec.Shard[ops.ProbeState]{M: m, Lo: skip, N: n - skip}
					p.rootRows = n - skip
				}
				wireRootStage[ops.ProbeState](st, exec.NewMachineSource[ops.ProbeState](rootM), m, spec.rootLimit)
			}
		case kindProbe:
			m := &ops.ProbeMachine{Table: d.table, Out: col, EarlyExit: d.earlyExit}
			sel := d.sel
			wirePipeStage[ops.ProbeState](p, st, i,
				func(c *memsim.Core, s *ops.ProbeState, r Row) exec.Outcome {
					return m.InitKey(c, s, r.RID, sel.of(r), r.ProbePayload)
				},
				m, m.ProvisionedStages(), onDone)
		case kindBST:
			m := &ops.BSTSearchMachine{Tree: d.tree, Out: col}
			sel := d.sel
			wirePipeStage[ops.BSTState](p, st, i,
				func(c *memsim.Core, s *ops.BSTState, r Row) exec.Outcome {
					return m.InitKey(c, s, r.RID, sel.of(r), r.ProbePayload)
				},
				m, m.ProvisionedStages(), onDone)
		case kindAggregate:
			agg := d.agg
			if spec.sinkAgg != nil {
				agg = spec.sinkAgg
			}
			m := &ops.GroupByMachine{Table: agg}
			sel := d.sel
			wirePipeStage[ops.GroupByState](p, st, i,
				func(c *memsim.Core, s *ops.GroupByState, r Row) exec.Outcome {
					return m.InitKey(c, s, r.RID, sel.of(r), r.ProbePayload)
				},
				m, m.ProvisionedStages(), onDone)
		}
		p.stages = append(p.stages, st)
	}
	return p
}

// Pipeline is one assembled, single-use plan execution: run it with a static
// per-stage assignment (Run) or one adaptive controller per stage
// (RunAdaptive).
type Pipeline struct {
	stages  []*stageExec
	pipes   []*pipe
	burst   int
	prelude []func(c *memsim.Core)

	// rootRows is the root stage's input size (lookups or scheduled
	// arrivals), for the report.
	rootRows int

	// rootDepth reports the admission-queue backlog of a serving root (nil
	// for batch), the root tuner's queue-pressure signal.
	rootDepth func() int

	// nested is the busy-cycle attribution stack of an adaptive run:
	// nested[k] accumulates the busy cycles of pumps launched from recursion
	// depth k, so each stage's tuner observes only its own engine's work.
	nested []uint64

	// tr receives stage engine events, pipe depth counters and backpressure
	// instants (SetTrace); nil methods no-op. Purely observational.
	tr *obs.CoreTrace

	used bool
}

// SetTrace attaches a per-core trace sink to the pipeline: every stage
// engine's slot lifecycle, each pipe's depth counter, and a backpressure
// instant whenever a pump lease ends on a full outbound pipe. Purely
// observational — simulated results are bit-identical with or without it.
// Call before Run/RunAdaptive.
func (p *Pipeline) SetTrace(tr *obs.CoreTrace) {
	p.tr = tr
	for _, st := range p.stages {
		st.tr = tr
	}
	for _, pp := range p.pipes {
		pp.tr = tr
	}
}

// StageReport is one stage's outcome.
type StageReport struct {
	Label string
	// Config is the engine assignment (for adaptive runs, the technique in
	// force when the run ended).
	Config StageConfig
	// RowsIn counts rows entering the stage; RowsOut rows it emitted
	// downstream (zero for the sink — its collector holds the results).
	RowsIn, RowsOut uint64
	// Sched aggregates the stage's AMAC scheduler stats, if any.
	Sched core.RunStats
}

// Result reports a pipeline run.
type Result struct {
	Stages []StageReport
}

// pump runs one bounded lease of stage idx's engine, filling its outbound
// pipe, and returns the cycle a waiting root asked to be resumed at (zero
// otherwise). The lease never idles — only the sink engine may idle — and
// its gate closes when the outbound pipe fills, which is how downstream
// admission backpressure propagates upstream.
func (p *Pipeline) pump(c *memsim.Core, idx int) (waitUntil uint64) {
	st := p.stages[idx]
	if st.done {
		if st.out != nil {
			st.out.done = true
		}
		return 0
	}
	var gate func() bool
	if st.out != nil {
		out := st.out
		gate = func() bool { return !out.full() }
	}
	var res leaseOutcome
	if st.tuner != nil {
		res = p.runTuned(c, st, gate)
	} else {
		res = st.run(c, st.cfg.Tech, core.Options{Width: st.cfg.Window}, p.burst, gate, true)
	}
	st.sched.Add(res.sched)
	if res.exhausted {
		st.done = true
		if st.out != nil {
			st.out.done = true
		}
		return 0
	}
	if st.out != nil && st.out.full() {
		// The lease ended on a full outbound pipe: downstream backpressure
		// closed the gate.
		p.tr.Backpressure(c.Cycle(), idx)
	}
	return res.waitUntil
}

// runTuned runs one adaptive lease decided by the stage's tuner, attributing
// to it only the busy cycles its own engine consumed: the cycles of nested
// upstream pumps are measured through the attribution stack and subtracted,
// so each stage's controller compares techniques on its own service cost.
func (p *Pipeline) runTuned(c *memsim.Core, st *stageExec, gate func() bool) leaseOutcome {
	l := st.tuner.Next()
	before := busyCycles(c)
	p.nested = append(p.nested, 0)
	res := st.run(c, l.Tech, l.Opts, l.Quota, gate, true)
	nested := p.nested[len(p.nested)-1]
	p.nested = p.nested[:len(p.nested)-1]
	total := busyCycles(c) - before
	if len(p.nested) > 0 {
		p.nested[len(p.nested)-1] += total
	}
	st.tuner.Observe(l, res.completed, total-nested, res.sched, res.exhausted)
	return res
}

// busyCycles reads the core's non-idle cycle count.
func busyCycles(c *memsim.Core) uint64 {
	s := c.Stats()
	return s.Cycles - s.IdleCycles
}

// runPrelude runs the declared charged build phases.
func (p *Pipeline) runPrelude(c *memsim.Core) {
	for _, f := range p.prelude {
		f(c)
	}
	p.prelude = nil
}

// start guards single use.
func (p *Pipeline) start() {
	if p.used {
		panic("pipeline: Pipeline is single-use; build a fresh one per run")
	}
	p.used = true
}

// Run executes the plan with a static per-stage engine assignment: the sink
// stage's engine drives the whole plan to exhaustion, pulling through the
// stage chain. len(cfgs) must equal the stage count.
func (p *Pipeline) Run(c *memsim.Core, cfgs []StageConfig) Result {
	p.start()
	if len(cfgs) != len(p.stages) {
		panic("pipeline: one StageConfig per stage")
	}
	for i, st := range p.stages {
		st.cfg = cfgs[i]
	}
	p.runPrelude(c)
	sink := p.stages[len(p.stages)-1]
	res := sink.run(c, sink.cfg.Tech, core.Options{Width: sink.cfg.Window}, 0, nil, false)
	sink.sched.Add(res.sched)
	sink.done = true
	return p.result()
}

// RunAdaptive executes the plan with one adaptive controller per stage: each
// stage's leases are decided by its own probe/exploit tuner, fed by the
// stage's inbound backlog (its pipe depth; the admission queue for the
// root). len(ctls) must equal the stage count; controllers persist across
// pipelines, so a sweep can let tuning carry over.
func (p *Pipeline) RunAdaptive(c *memsim.Core, ctls []*adapt.Controller) Result {
	p.start()
	if len(ctls) != len(p.stages) {
		panic("pipeline: one Controller per stage")
	}
	for i, st := range p.stages {
		depth := p.rootDepth
		if st.in != nil {
			depth = st.in.depth
		}
		if p.tr != nil {
			ctls[i].SetTrace(p.tr)
		}
		st.tuner = adapt.NewStreamTuner(ctls[i], depth)
	}
	p.runPrelude(c)
	last := len(p.stages) - 1
	sink := p.stages[last]
	for !sink.done {
		waitUntil := p.pump(c, last)
		if waitUntil > c.Cycle() {
			// Nothing in flight anywhere and no row arrives before
			// waitUntil: the sink idles, as a static sink's engine would. A
			// stale (already due) wait needs no idling — the next pump's
			// root pull admits the arrival.
			c.AdvanceTo(waitUntil)
		}
	}
	for i, st := range p.stages {
		st.cfg = StageConfig{Tech: ctls[i].Technique()}
		if st.cfg.Tech == ops.AMAC {
			st.cfg.Window = ctls[i].Width()
		}
	}
	return p.result()
}

// result assembles the per-stage report.
func (p *Pipeline) result() Result {
	res := Result{Stages: make([]StageReport, len(p.stages))}
	for i, st := range p.stages {
		r := StageReport{Label: st.label, Config: st.cfg, Sched: st.sched}
		if i == 0 {
			r.RowsIn = uint64(p.rootRows)
		} else {
			r.RowsIn = p.pipes[i-1].popped
		}
		if i < len(p.pipes) {
			r.RowsOut = p.pipes[i].pushed
		}
		res.Stages[i] = r
	}
	return res
}
