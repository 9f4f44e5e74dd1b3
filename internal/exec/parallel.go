package exec

import (
	"sync"

	"amac/internal/memsim"
)

// This file implements the sharded multi-core execution layer: a Machine's
// lookups are partitioned across W workers, each worker owns a private
// memsim.Core (private L1/L2; the caller builds one System per worker, since
// Core, Cache and Fabric are not safe for concurrent use) and runs its own
// engine — Baseline, GP, SPP or AMAC — over its shard on its own goroutine.
//
// The simulation stays deterministic under -race and independent of the Go
// scheduler because workers share nothing mutable: each worker's simulated
// timeline is a pure function of its shard, and the merge (max over elapsed
// cycles, sum over event counters) is order-independent. This mirrors the
// paper's cross-core methodology (Section 5.1.1): AMAC extracts inter-lookup
// MLP within one core, and its evaluation scales across cores by
// partitioning the lookups of the probe relation.

// Shard views lookups [Lo, Lo+N) of an underlying machine as a standalone
// machine with local indices 0..N-1, so any engine can run one worker's
// share of the work unchanged. The underlying machine must be safe for the
// concurrent use the caller intends: range-sharding a read-only search
// machine is safe when every worker writes to its own output collector,
// while machines that mutate shared structures (hash build) need genuinely
// partitioned workloads instead (see ops.PartitionJoin).
type Shard[S any] struct {
	M  Machine[S]
	Lo int
	N  int
}

// NumLookups implements Machine.
func (sh Shard[S]) NumLookups() int { return sh.N }

// ProvisionedStages implements Machine.
func (sh Shard[S]) ProvisionedStages() int { return sh.M.ProvisionedStages() }

// Init implements Machine: local lookup i is global lookup Lo+i.
func (sh Shard[S]) Init(c *memsim.Core, s *S, i int) Outcome {
	return sh.M.Init(c, s, sh.Lo+i)
}

// Stage implements Machine.
func (sh Shard[S]) Stage(c *memsim.Core, s *S, stage int) Outcome {
	return sh.M.Stage(c, s, stage)
}

// ParallelStats is the merged outcome of one parallel run.
type ParallelStats struct {
	// PerWorker holds each worker's private-core counters, indexed by
	// worker.
	PerWorker []memsim.Stats
	// Merged aggregates the run: Cycles is the slowest worker's elapsed
	// cycles (the workers run side by side), every other counter is summed.
	Merged memsim.Stats
}

// ElapsedCycles returns the simulated wall-clock cycles of the parallel
// phase: the slowest worker's cycle count.
func (p ParallelStats) ElapsedCycles() uint64 { return p.Merged.Cycles }

// RunParallel executes body(w, cores[w]) for every worker on its own
// goroutine, waits for all of them, and merges the per-core stats. The body
// typically runs one engine over one shard; it must touch only worker-local
// state (its core, its shard's machine, its own output collector).
func RunParallel(cores []*memsim.Core, body func(worker int, c *memsim.Core)) ParallelStats {
	var wg sync.WaitGroup
	for w, c := range cores {
		wg.Add(1)
		go func(w int, c *memsim.Core) {
			defer wg.Done()
			body(w, c)
		}(w, c)
	}
	wg.Wait()

	per := make([]memsim.Stats, len(cores))
	for w, c := range cores {
		per[w] = c.Stats()
	}
	return ParallelStats{PerWorker: per, Merged: memsim.MergeParallel(per)}
}
