package amac

import (
	"amac/internal/fault"
	"amac/internal/serve"
)

// This file exports the fault-injection and graceful-degradation layer:
// deterministic chaos schedules applied on the simulated clock (shard
// slowdown, freeze, crash with cold-cache restart, arrival spikes),
// per-request deadlines, and the recovery policies — capped-backoff retry,
// hedged re-dispatch, per-shard circuit breakers and an SLO-aware brownout
// — that keep a degraded service's surviving tail bounded (see the faultN
// experiment).

// The fault episode kinds (FaultEpisode.Kind).
const (
	FaultSlow   = fault.Slow
	FaultFreeze = fault.Freeze
	FaultCrash  = fault.Crash
	FaultSpike  = fault.Spike
)

// FaultEpisode is one fault applied to one shard over [Start, Start+Dur)
// simulated cycles.
type FaultEpisode = fault.Episode

// FaultSchedule is a set of episodes, sorted by start cycle, with at most
// one active episode per shard at any instant.
type FaultSchedule = fault.Schedule

// RetryPolicy is capped exponential backoff for requests whose last live
// copy timed out or was crash-dropped.
type RetryPolicy = fault.RetryPolicy

// HedgePolicy duplicates a still-unserved request onto a healthy sibling
// shard after Delay cycles; the first completion wins.
type HedgePolicy = fault.HedgePolicy

// BreakerConfig configures the per-shard circuit breaker: an EWMA of the
// shard's per-round timeout fraction opens the breaker (arrivals reroute to
// siblings), a cooldown moves it to half-open, and successful probes close
// it again. Only the cooldown is tunable.
type BreakerConfig = fault.BreakerConfig

// FaultyServiceOptions configures a fault-injected service run: the plain
// ServiceOptions plus a chaos schedule, per-request deadlines and the
// recovery policies layered on top of the shards.
type FaultyServiceOptions = serve.FaultyOptions

// RunFaultyService executes a sharded streaming service under deterministic
// fault injection. It is the coordinator RunService also runs on: with a
// chaos schedule or a recovery policy it steps the share-nothing per-worker
// simulations in rounds of the simulated clock, so the chaos timeline,
// deadlines, hedging, breakers and brownout apply at identical simulated
// instants on every execution. A zero-fault, zero-policy run is
// bit-identical to RunService on the same configuration; unlike RunService,
// its result always carries a Faults summary (episodes applied, deepest
// brownout shed level, breaker transitions).
func RunFaultyService[S any](opts FaultyServiceOptions, workers []ServiceWorker[S]) ServiceResult {
	return serve.RunFaulty(opts, workers)
}
