package amac

import "amac/internal/serve"

// This file exports the streaming request-serving layer: open-loop load
// generation (arrival schedules in simulated cycles), a bounded admission
// queue with drop/block policies, per-request admission→completion latency
// accounting, and streaming variants of all four execution engines. AMAC's
// streaming engine refills each circular-buffer slot the moment its lookup
// completes; the GP/SPP/Baseline stream adapters keep their batch-boundary
// refill restrictions, so the paper's flexibility argument becomes
// measurable as tail latency (see the serveN experiment and
// examples/serving).

// Poisson draws exponential inter-arrival gaps with the given mean; its
// Schedule method returns the arrival cycles of a ServiceWorker.
type Poisson = serve.Poisson

// The two queue policies (ServiceOptions.Policy): Block delays admission
// when the queue is full (latency still counts from arrival), Drop rejects.
const (
	QueueBlock = serve.Block
	QueueDrop  = serve.Drop
)

// LatencyRecorder accumulates per-request serving statistics: a log-linear
// latency histogram (p50/p95/p99/max within 12.5%), completion and drop
// counts, queue wait and queue depth.
type LatencyRecorder = serve.Recorder

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
