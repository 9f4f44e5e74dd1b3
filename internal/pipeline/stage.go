package pipeline

import (
	"amac/internal/adapt"
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
)

// pipeSource adapts an inter-stage pipe to exec.Source, which is what makes
// a downstream operator's engine composable over an upstream one: when the
// pipe runs dry, Pull recursively pumps the upstream stage — a bounded,
// backpressured lease of its engine — and resumes handing out rows the pump
// buffered. The recursion bottoms out at the root stage, whose source is a
// materialized batch (exec.MachineSource) or an admission queue
// (serve.QueueSource).
type pipeSource[S any] struct {
	p   *Pipeline
	idx int // this stage's index; Pull pumps stage idx-1
	in  *pipe

	// initRow is the operator's stage 0 over a streamed-in row (the machine's
	// InitKey), stager the operator machine that runs its later stages.
	initRow   func(c *memsim.Core, s *S, r Row) exec.Outcome
	stager    exec.Stager[S]
	provision int

	// onDone, if non-nil, observes completions (the sink stage of a serving
	// pipeline records end-to-end latency here).
	onDone func(req exec.Request, done uint64)
}

// ProvisionedStages implements exec.Source.
func (ps *pipeSource[S]) ProvisionedStages() int { return ps.provision }

// Pull implements exec.Source: pop a buffered row, or pump the upstream
// stage until one appears, the stream ends, or the upstream root reports
// that nothing arrives before a future cycle.
func (ps *pipeSource[S]) Pull(c *memsim.Core, s *S, now uint64, pr *exec.PullResult) {
	for {
		if ps.in.depth() > 0 {
			r := ps.in.pop(c)
			pr.Status = exec.Pulled
			pr.Out = ps.initRow(c, s, r)
			pr.Req = exec.Request{Index: r.RID, Admit: r.Admit}
			return
		}
		if ps.in.done {
			pr.Status = exec.Exhausted
			return
		}
		waitUntil := ps.p.pump(c, ps.idx-1)
		if ps.in.depth() > 0 {
			continue
		}
		if waitUntil > 0 {
			// The chain bottomed out at a root with pending future arrivals:
			// propagate the wait downstream so only the sink engine idles.
			pr.Status, pr.NextArrival = exec.Wait, waitUntil
			return
		}
		// The lease ran (consuming upstream input) but every row filtered
		// out before reaching this pipe; loop and pump again. Progress is
		// guaranteed: each iteration either advances the upstream stream or
		// observes it done/waiting.
	}
}

// Stager implements exec.Source: the operator machine.
func (ps *pipeSource[S]) Stager() exec.Stager[S] { return ps.stager }

// Complete implements exec.Source.
func (ps *pipeSource[S]) Complete(req exec.Request, done uint64) {
	if ps.onDone != nil {
		ps.onDone(req, done)
	}
}

// leaseOutcome reports one engine lease (or full run) of a stage.
type leaseOutcome struct {
	completed int
	exhausted bool
	waitUntil uint64
	sched     core.RunStats
}

// stageRunner executes the technique's engine with the given options (an
// adaptive AMAC lease carries its persistent width controller), bounded to
// quota admissions under the gate when quota > 0 (a pump lease), to
// exhaustion otherwise (the sink of a static run).
type stageRunner func(c *memsim.Core, tech ops.Technique, opts core.Options, quota int, gate func() bool, noWait bool) leaseOutcome

// stageSampler runs the planner's adaptive probe over a sample of the
// stage's input rows on a scratch core (rows is ignored by root stages,
// which sample their own materialized input).
type stageSampler func(c *memsim.Core, ctl *adapt.Controller, rows []ops.JoinRow)

// stageExec is the type-erased runtime of one stage. Go methods cannot be
// generic, so the Builder's concrete per-operator methods wire each stage
// through the generic helpers below into these closures.
type stageExec struct {
	label   string
	in, out *pipe // nil for the root / sink respectively
	cfg     StageConfig
	run     stageRunner
	sample  stageSampler

	// tuner is set (one per stage) in adaptive runs.
	tuner *adapt.StreamTuner

	// tr is the pipeline's trace sink (SetTrace); nil methods no-op.
	tr *obs.CoreTrace

	done  bool
	sched core.RunStats
}

// makeRunner builds the engine closure over a stage's source. The stage's
// trace sink is read at lease time, so SetTrace works after Build.
func makeRunner[S any](st *stageExec, src exec.Source[S]) stageRunner {
	return func(c *memsim.Core, tech ops.Technique, opts core.Options, quota int, gate func() bool, noWait bool) leaseOutcome {
		drive := src
		var lease *exec.LeaseSource[S]
		if quota > 0 {
			lease = &exec.LeaseSource[S]{Src: src, Quota: quota, Gate: gate, NoWait: noWait}
			drive = lease
		}
		if opts.Trace == nil {
			opts.Trace = st.tr
		}
		// Each lease runs under the stage's label frame, so per-stage cycles
		// (and the technique frames the engines push beneath) separate in a
		// profile of the shared core.
		p := c.Profiler()
		p.Push(p.Frame(st.label))
		sched := ops.RunSource(c, drive, tech, opts)
		p.Pop()
		if lease == nil {
			return leaseOutcome{exhausted: true, sched: sched}
		}
		return leaseOutcome{
			completed: lease.Completed,
			exhausted: lease.Exhausted,
			waitUntil: lease.WaitUntil,
			sched:     sched,
		}
	}
}

// wirePipeStage connects a non-root stage: its source pops rows from the
// inbound pipe and feeds them to the operator's InitKey.
func wirePipeStage[S any](p *Pipeline, st *stageExec, idx int,
	initRow func(c *memsim.Core, s *S, r Row) exec.Outcome,
	stager exec.Stager[S],
	provision int,
	onDone func(req exec.Request, done uint64),
) {
	src := &pipeSource[S]{
		p: p, idx: idx, in: st.in,
		initRow: initRow, stager: stager, provision: provision,
		onDone: onDone,
	}
	st.run = makeRunner[S](st, src)
	st.sample = func(c *memsim.Core, ctl *adapt.Controller, rows []ops.JoinRow) {
		if len(rows) == 0 {
			return
		}
		// Warm half, measure half: the first half replays under the baseline
		// engine so a small structure reaches its steady-state residency
		// before the controller measures — the long run the choice is for is
		// overwhelmingly warm. A large structure stays honest: its
		// second-half keys land in buckets the warm pass never touched.
		if warm := len(rows) / 2; warm > 0 {
			wm := &rowsMachine[S]{rows: rows[:warm], initRow: initRow, stage: stager.Stage, provision: provision}
			ops.RunMachine(c, wm, ops.Baseline, ops.Params{})
			rows = rows[warm:]
		}
		m := &rowsMachine[S]{rows: rows, initRow: initRow, stage: stager.Stage, provision: provision}
		adapt.Run[S](c, m, ctl)
	}
}

// wireRootStage connects the root stage over an arbitrary source (a
// materialized batch or an admission queue). sampleM, when non-nil, is a
// planner twin of the root machine (emitting into scratch) sampled over its
// first sampleN lookups.
func wireRootStage[S any](st *stageExec, src exec.Source[S], sampleM exec.Machine[S], sampleN int) {
	st.run = makeRunner[S](st, src)
	st.sample = func(c *memsim.Core, ctl *adapt.Controller, _ []ops.JoinRow) {
		if sampleM == nil {
			return
		}
		n := sampleM.NumLookups()
		if sampleN < n {
			n = sampleN
		}
		if n == 0 {
			return
		}
		// Warm half, measure half — same rationale as the pipe-stage sampler.
		warm := n / 2
		if warm > 0 {
			ops.RunMachine(c, exec.Shard[S]{M: sampleM, Lo: 0, N: warm}, ops.Baseline, ops.Params{})
		}
		adapt.Run[S](c, exec.Shard[S]{M: sampleM, Lo: warm, N: n - warm}, ctl)
	}
}

// rowsMachine replays a captured sample of inter-stage rows as a fixed batch
// machine, which is what lets the planner measure a mid-plan stage's cost in
// isolation: the rows its real input pipe would carry, without running the
// upstream stages again.
type rowsMachine[S any] struct {
	rows      []ops.JoinRow
	initRow   func(c *memsim.Core, s *S, r Row) exec.Outcome
	stage     func(c *memsim.Core, s *S, stage int) exec.Outcome
	provision int
}

// NumLookups implements exec.Machine.
func (m *rowsMachine[S]) NumLookups() int { return len(m.rows) }

// ProvisionedStages implements exec.Machine.
func (m *rowsMachine[S]) ProvisionedStages() int { return m.provision }

// Init implements exec.Machine.
func (m *rowsMachine[S]) Init(c *memsim.Core, s *S, i int) exec.Outcome {
	return m.initRow(c, s, Row{JoinRow: m.rows[i]})
}

// Stage implements exec.Machine.
func (m *rowsMachine[S]) Stage(c *memsim.Core, s *S, stage int) exec.Outcome {
	return m.stage(c, s, stage)
}
