package amac

import "amac/internal/prof"

// This file exports the cycle-attribution profiler: an exact accounting of
// every simulated core cycle to a (context stack, category) cell, where the
// context stack is what the engines push (technique, stage number,
// probe/exploit epoch, pipeline stage, serving admission) and the category is
// what the memory system charges (compute, per-level exposed stall, TLB,
// MSHR pressure, idle). Attribution totals reconcile exactly with
// Stats.Cycles — conservation is an invariant, not an approximation. Like the
// observability sinks, a nil profiler is the disabled state: every method on
// a nil receiver is a single-branch no-op that allocates nothing, so
// instrumented code threads the pointers unconditionally and a profiled run
// is byte-identical to an unprofiled one. Attach through Sinks.Attach,
// Core.SetProfiler or ServiceOptions.Profile; export with WriteFolded
// (flamegraph.pl/speedscope) or WritePprof (go tool pprof).

// CycleProfile is the root profiler registry: named per-core cycle
// attributions, registered through Core and aggregated with Merged. nil
// disables profiling.
type CycleProfile = prof.Profile

// NewCycleProfile creates an empty profiler registry.
func NewCycleProfile() *CycleProfile { return prof.NewProfile() }

// The attribution categories, in charge order: every simulated cycle is
// charged to exactly one.
const (
	CycleCompute  = prof.CatCompute
	CycleL1       = prof.CatL1
	CycleL2       = prof.CatL2
	CycleLLC      = prof.CatLLC
	CycleDRAM     = prof.CatDRAM
	CycleTLB      = prof.CatTLB
	CycleMSHRFull = prof.CatMSHRFull
	CycleIdle     = prof.CatIdle
)
