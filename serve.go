package amac

import (
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/ops"
	"amac/internal/serve"
)

// This file exports the streaming request-serving layer: open-loop load
// generation (deterministic, Poisson, bursty arrivals in simulated cycles),
// a bounded admission queue with drop/block policies, per-request
// admission→completion latency accounting, and streaming variants of all
// four execution engines. AMAC's streaming engine refills each
// circular-buffer slot the moment its lookup completes; the GP/SPP/Baseline
// stream adapters keep their batch-boundary refill restrictions, so the
// paper's flexibility argument becomes measurable as tail latency (see the
// serveN experiment and examples/serving).

// Request identifies one admitted lookup of a streaming run: the lookup
// index and the simulated cycle at which the request entered the system.
type Request = exec.Request

// PullStatus is a Source's answer to Pull: a request was admitted and
// initiated, none is available yet, or the stream ended.
type PullStatus = exec.PullStatus

// The three Pull answers.
const (
	Pulled    = exec.Pulled
	Wait      = exec.Wait
	Exhausted = exec.Exhausted
)

// PullResult carries a Pull's status, the initiated request's stage-0
// outcome, and (on Wait) the next arrival cycle.
type PullResult = exec.PullResult

// Source is a pull-based stream of lookups over per-lookup state S: the
// streaming engines draw work from it instead of iterating a fixed batch,
// and report completions back for latency accounting.
type Source[S any] = exec.Source[S]

// Stager runs the code stages (>= 1) of a Source's requests; a Source's
// Stager method returns its underlying Machine, which is one.
type Stager[S any] = exec.Stager[S]

// MachineSource adapts a fixed Machine batch to the Source interface (every
// lookup admitted at cycle 0). Every batch run (Run, RunWith, RunBaseline,
// ...) is a streaming engine over one.
type MachineSource[S any] = exec.MachineSource[S]

// NewMachineSource wraps a machine as an always-ready source.
func NewMachineSource[S any](m Machine[S]) *MachineSource[S] {
	return exec.NewMachineSource(m)
}

// ArrivalProcess generates an open-loop arrival schedule in simulated
// cycles.
type ArrivalProcess = serve.ArrivalProcess

// The built-in arrival processes.
type (
	// Deterministic spaces arrivals exactly Period cycles apart.
	Deterministic = serve.Deterministic
	// Poisson draws exponential inter-arrival gaps with the given mean.
	Poisson = serve.Poisson
	// Bursty emits on/off bursts: BurstLen requests spaced Period apart,
	// then Off idle cycles.
	Bursty = serve.Bursty
)

// ParseArrivals builds the named arrival process ("deterministic",
// "poisson", "bursty") at the given mean inter-arrival period. It rejects
// NaN, infinite periods and periods above 2^32 cycles.
func ParseArrivals(name string, period float64) (ArrivalProcess, error) {
	return serve.ParseArrivals(name, period)
}

// QueuePolicy says what a bounded admission queue does when full: Block
// delays admission (latency still counts from arrival), Drop rejects.
type QueuePolicy = serve.Policy

// The two queue policies.
const (
	QueueBlock = serve.Block
	QueueDrop  = serve.Drop
)

// LatencyRecorder accumulates per-request serving statistics: a log-linear
// latency histogram (p50/p95/p99/max within 12.5%), completion and drop
// counts, queue wait and queue depth.
type LatencyRecorder = serve.Recorder

// QueueSource feeds a streaming engine from a bounded admission queue
// filled by an open-loop arrival schedule; request i of the schedule is
// lookup i of the wrapped machine.
type QueueSource[S any] = serve.QueueSource[S]

// NewQueueSource builds a queue-fed source: the machine's lookups arrive at
// the given cycles, through a queue of the given capacity (zero =
// unbounded) and policy. Pass nil to allocate a fresh recorder; read it
// back with the source's Recorder method.
func NewQueueSource[S any](m Machine[S], arrivals []uint64, capacity int, policy QueuePolicy, rec *LatencyRecorder) *QueueSource[S] {
	return serve.NewQueueSource(m, arrivals, capacity, policy, rec)
}

// RunStream executes AMAC over a request stream: every circular-buffer slot
// refills from the source the moment its lookup completes, the property
// that keeps tail latency flat under load where batch-boundary refill does
// not. The core idles (Core.AdvanceTo) only when nothing is admitted and
// nothing is in flight.
func RunStream[S any](c *Core, src Source[S], opts Options) RunStats {
	return core.RunStream(c, src, opts)
}

// RunBaselineStream serves requests one at a time with no prefetching.
func RunBaselineStream[S any](c *Core, src Source[S]) {
	exec.BaselineStream(c, src, nil)
}

// RunGroupPrefetchStream serves requests under Group Prefetching semantics:
// new requests are admitted only at group boundaries, after the previous
// group fully drained.
func RunGroupPrefetchStream[S any](c *Core, src Source[S], group int) {
	exec.GroupPrefetchStream(c, src, group, nil)
}

// RunSoftwarePipelineStream serves requests under Software-Pipelined
// Prefetching semantics: a pipeline slot refills only at its static refill
// point, even when its lookup finished early.
func RunSoftwarePipelineStream[S any](c *Core, src Source[S], inflight int) {
	exec.SoftwarePipelineStream(c, src, inflight, nil)
}

// RunSourceWith drives the selected technique's streaming engine over one
// source on one core — the streaming counterpart of RunWith. AMAC returns
// its scheduler stats; the other engines report only through the source.
func RunSourceWith[S any](c *Core, src Source[S], tech Technique, p Params) RunStats {
	return ops.RunSource(c, src, tech, core.Options{Width: p.Window})
}

// ServiceWorker describes one worker of a sharded streaming service: its
// operator machine and the arrival schedule of the requests routed to it.
type ServiceWorker[S any] = serve.Worker[S]

// ServiceOptions configures a service run (hardware model, technique,
// window, queue bound and policy, optional per-worker cache warm-up).
type ServiceOptions = serve.Options

// ServiceResult is the merged outcome of a service run: per-worker and
// merged core stats (elapsed cycles = slowest worker), merged latency
// recorder, merged AMAC scheduler stats.
type ServiceResult = serve.Result

// RunService executes a sharded streaming service: every worker serves its
// machine from its own queue-fed source on a private core, concurrently on
// real goroutines, deterministically for a fixed configuration. It is
// RunFaultyService with no faults and no recovery policies, minus the
// Faults summary.
func RunService[S any](opts ServiceOptions, workers []ServiceWorker[S]) ServiceResult {
	return serve.Run(opts, workers)
}
