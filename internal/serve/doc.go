// Package serve is the streaming request-serving layer: it turns the
// repository's batch operators into a simulated service under open-loop
// load, which is the system shape the paper's flexibility argument is
// really about. A load generator emits requests at simulated-cycle arrival
// times (deterministic, Poisson or bursty on/off); a bounded admission
// queue absorbs them under a drop or block policy; a streaming engine —
// queue-fed AMAC (core.RunStream) or the batch-boundary GP/SPP/Baseline
// adapters (package exec) — pulls requests out and runs them as stage
// machines; and a latency recorder histograms every request's
// admission→completion cycles into p50/p95/p99/max, throughput and queue
// depth.
//
// The point of the layer is that the four techniques differ in WHEN a freed
// execution slot may admit the next request: AMAC refills per slot the
// moment a lookup completes, GP only at group boundaries, SPP only at
// static pipeline refill points, the baseline one request at a time. Under
// batch execution that difference is a few percent of cycles; under
// open-loop arrivals near saturation it is the difference between a flat
// p99 and an admission queue that grows without bound.
//
// RunFaulty is the one coordinator of a sharded multi-worker instance of the
// whole arrangement: every worker owns a private core, machine, queue and
// recorder, so the simulation stays deterministic under -race. It steps the
// shards in rounds of the simulated clock so that host-side policy —
// package fault's scripted episodes (slowdown, freeze, crash, arrival
// spikes), capped-backoff retry, hedged re-dispatch with
// first-completion-wins dedup, a per-shard circuit breaker and the routed
// SLO brownout — can act at round edges; per-request deadlines are enforced
// in queue and in flight. With nothing ticking at round edges the run is a
// single round. The shards of a round run on goroutines unless a router
// couples them, in which case they run in shard order. Run is RunFaulty with
// no faults and no policies. A timed-out slot is drained through the
// engine's shrink machinery, never abandoned, and the Recorder splits
// outcomes into served/timed-out/failed/shed/dropped with retry/hedge/
// reroute activity counted separately.
package serve
