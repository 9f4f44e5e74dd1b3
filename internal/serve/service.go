package serve

import (
	"fmt"

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

// Run executes the sharded streaming service: every worker serves its own
// machine from its own queue-fed source on a private core, concurrently on
// real goroutines (exec.RunParallel), and the per-worker stats and latency
// recorders are merged. Deterministic for a fixed configuration regardless
// of the goroutine schedule, because workers share nothing mutable.
//
// The socket models are recycled (memsim.AcquireSystem), so a load sweep
// that calls Run once per (technique, load) point reuses one System+Core
// pair per worker instead of rebuilding megabytes of cache metadata per
// point; a recycled pair is reset to exactly the fresh-construction state,
// so results are bit-identical either way.
func Run[S any](opts Options, workers []Worker[S]) Result {
	n := len(workers)
	if n == 0 {
		return Result{}
	}

	pooled := make([]*memsim.PooledSystem, n)
	cores := make([]*memsim.Core, n)
	sources := make([]*QueueSource[S], n)
	trs := make([]*obs.CoreTrace, n)
	brown := make([]*fault.Brownout, n)
	shared := opts.Hardware.ShareLLC(n)
	for w := 0; w < n; w++ {
		pooled[w] = memsim.AcquireSystem(shared)
		cores[w] = pooled[w].Core
		pooled[w].Sys.SetActiveThreads(n, cores[w])
		if opts.Prepare != nil {
			opts.Prepare(w, cores[w])
		}
		cores[w].ResetStats()
		cores[w].SetProfiler(opts.Profile.Core(fmt.Sprintf("worker %d", w)))
		sources[w] = NewQueueSource(workers[w].Machine, workers[w].Arrivals, opts.QueueCap, opts.Policy, nil)
		// Tracks register here, in worker order on one goroutine, so the
		// exported trace's process layout is deterministic regardless of the
		// goroutine schedule. Metrics without tracing still needs a CoreTrace
		// as the width-gauge holder; an unregistered discard core serves.
		trs[w] = opts.Trace.Core(fmt.Sprintf("worker %d", w))
		if trs[w] == nil && opts.Metrics != nil {
			trs[w] = obs.NewDiscardCore()
		}
		sources[w].SetTrace(trs[w])
		var lw *obs.LatencyWindow
		if opts.Metrics != nil || opts.SLO.Enabled() {
			lw = obs.NewLatencyWindow(0)
			sources[w].SetLatencyWindow(lw)
		}
		if opts.SLO.Enabled() {
			brown[w] = fault.NewBrownout(opts.SLO)
			sources[w].SetBrownout(brown[w])
		}
		if opts.Metrics != nil {
			cm := opts.Metrics.Core(fmt.Sprintf("worker %d", w))
			src, c, tr := sources[w], cores[w], trs[w]
			cm.Gauge("queue_depth", func() float64 { return float64(src.Depth()) })
			cm.Gauge("mshr_outstanding", func() float64 { return float64(c.MSHROutstanding()) })
			cm.Gauge("width", func() float64 { return float64(tr.Width()) })
			cm.Gauge("p99_window", func() float64 { return float64(lw.Quantile(0.99)) })
			var prev memsim.Stats
			cm.Gauge("stall_fraction", func() float64 {
				s := c.Stats()
				busy := (s.Cycles - prev.Cycles) - (s.IdleCycles - prev.IdleCycles)
				stall := s.StallCycles - prev.StallCycles
				prev = s
				if busy == 0 {
					return 0
				}
				return float64(stall) / float64(busy)
			})
			c.SetCycleHook(opts.Metrics.Interval(), cm.Tick)
		}
	}

	sched := make([]core.RunStats, n)
	var ctls []*adapt.Controller
	if opts.Adaptive != nil {
		ctls = make([]*adapt.Controller, n)
		for w := range ctls {
			ctls[w] = adapt.NewController(*opts.Adaptive)
			ctls[w].SetTrace(trs[w])
			if brown[w] != nil {
				b := brown[w]
				ctls[w].SetTailBias(func() bool { return b.Level() > 0 })
			}
		}
	}
	ps := exec.RunParallel(cores, func(w int, c *memsim.Core) {
		if ctls != nil {
			sched[w] = adapt.RunStream(c, sources[w], ctls[w], sources[w].Depth)
			return
		}
		sched[w] = ops.RunSource(c, sources[w], opts.Technique, core.Options{Width: opts.Window, Trace: trs[w]})
	})

	res := Result{Stats: ps.Merged, Sched: core.MergeRunStats(sched)}
	if ctls != nil {
		res.Adapt = &adapt.Info{}
	}
	for w := 0; w < n; w++ {
		wr := WorkerResult{
			Stats:   ps.PerWorker[w],
			Latency: sources[w].Recorder(),
			Sched:   sched[w],
		}
		if ctls != nil {
			info := ctls[w].Info()
			wr.Adapt = &info
			res.Adapt.Merge(info)
		}
		res.PerWorker = append(res.PerWorker, wr)
		res.Latency.Merge(sources[w].Recorder())
		sources[w].Close()
		cores[w].SetCycleHook(0, nil) // pooled core: never leak a hook or profiler past the run
		cores[w].SetProfiler(nil)
		pooled[w].Release()
	}
	return res
}
