package serve

import (
	"amac/internal/adapt"
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/prof"
)

// Worker describes one worker of a sharded streaming service: the operator
// machine serving its partition of the data and the arrival schedule of the
// requests routed to it. Lookup i of the machine is request i of the
// schedule.
type Worker[S any] struct {
	Machine  exec.Machine[S]
	Arrivals []uint64
}

// Options configures a service run.
type Options struct {
	// Hardware is the socket model; every worker gets a private System whose
	// L3 is its capacity share (Config.ShareLLC) and whose off-chip queue is
	// told all workers are active, as in the batch parallel layer.
	Hardware memsim.Config
	// Technique selects the streaming engine.
	Technique ops.Technique
	// Window is the number of in-flight lookups (zero = ops.DefaultWindow).
	Window int
	// QueueCap bounds each worker's admission queue (zero = unbounded).
	QueueCap int
	// Policy says what a full queue does with new arrivals.
	Policy Policy
	// Prepare, if non-nil, runs on every worker's core before measurement
	// (cache warming); the core's stats are reset afterwards.
	Prepare func(worker int, c *memsim.Core)
	// Adaptive, if non-nil, replaces the fixed Technique with a per-shard
	// adaptive controller (package adapt): every worker probes the
	// candidate techniques on its own traffic, exploits the cheapest, and
	// retunes when its observed per-request cost drifts or its queue depth
	// jumps — so a load shift on one shard retunes that shard alone.
	Adaptive *adapt.Config
	// Trace, if non-nil, records every worker's slot lifecycle, queue events
	// and controller decisions into a per-core ring ("worker N" tracks,
	// registered in worker order so output is deterministic). Purely
	// observational: simulated results are bit-identical with or without it.
	Trace *obs.Trace
	// Metrics, if non-nil, samples per-worker gauges (queue depth, MSHR
	// occupancy, AMAC width, sliding-window p99, stall fraction) every
	// Metrics.Interval() simulated cycles via the core's cycle hook. Purely
	// observational, like Trace.
	Metrics *obs.Metrics
	// Profile, if non-nil, attributes every worker's cycles ("worker N"
	// cores, registered in worker order) to engine/stage/queue-wait contexts.
	// Purely observational, like Trace; merge the per-worker profiles with
	// Profile.Merged for a service-wide flamegraph.
	Profile *prof.Profile
	// SLO, when enabled, gives every worker an SLO brownout: the shard's
	// sliding p99 against the budget sheds request classes at admission, and
	// adaptive runs additionally bias exploit leases onto AMAC (the
	// tail-robust engine) while classes are shed.
	SLO fault.SLO
}

// WorkerResult is one worker's outcome.
type WorkerResult struct {
	Stats   memsim.Stats
	Latency *Recorder
	// Sched holds AMAC's scheduler counters (zero for other techniques).
	Sched core.RunStats
	// Adapt holds the shard controller's tallies for adaptive runs (nil
	// otherwise).
	Adapt *adapt.Info
	// Faults holds the shard's fault-injection summary for RunFaulty runs
	// (nil otherwise).
	Faults *FaultInfo
}

// Result is the merged outcome of a service run.
type Result struct {
	PerWorker []WorkerResult
	// Stats merges the workers' core counters: Cycles is the slowest
	// worker's elapsed count, everything else sums.
	Stats memsim.Stats
	// Latency merges every worker's recorder.
	Latency Recorder
	// Sched merges the AMAC scheduler stats.
	Sched core.RunStats
	// Adapt merges the shard controllers' tallies for adaptive runs (nil
	// otherwise).
	Adapt *adapt.Info
	// Faults merges the shards' fault-injection summaries for RunFaulty runs
	// (nil otherwise).
	Faults *FaultInfo
}

// ElapsedCycles is the simulated wall-clock of the service phase.
func (r Result) ElapsedCycles() uint64 { return r.Stats.Cycles }

// ThroughputPerCycle is aggregate completed requests per cycle.
func (r Result) ThroughputPerCycle() float64 {
	return r.Latency.ThroughputPerCycle(r.ElapsedCycles())
}

// Run executes the sharded streaming service with no faults and no
// recovery policies: RunFaulty's coordinator in a single round, every
// worker serving its own machine from its own queue-fed source on a private
// core, concurrently on goroutines, with the per-worker stats and latency
// recorders merged. Deterministic for a fixed configuration regardless of
// the goroutine schedule, because workers share nothing mutable. The
// result's Faults summaries are nil.
func Run[S any](opts Options, workers []Worker[S]) Result {
	res := RunFaulty(FaultyOptions{Options: opts}, workers)
	res.Faults = nil
	for w := range res.PerWorker {
		res.PerWorker[w].Faults = nil
	}
	return res
}
