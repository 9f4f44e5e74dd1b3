package amac

import "amac/internal/exec"

// This file exports the sharded multi-core execution layer: each worker
// simulates its share of the lookups in full on a private Core (each on its
// own goroutine), and the per-worker stats merge into one report — elapsed
// cycles are the slowest worker's, event counters are summed. See the scaleN
// experiment for the end-to-end recipe on a partitioned hash join.

// ParallelStats is the merged outcome of one RunParallel invocation.
type ParallelStats = exec.ParallelStats

// RunParallel executes body(w, cores[w]) for every worker on its own
// goroutine, waits for all workers, and merges the per-core stats. Each core
// must come from its own System (cores are not safe for concurrent use and
// systems share an LLC and off-chip queue model); use Hardware.ShareLLC to
// approximate W workers sharing one socket's LLC.
func RunParallel(cores []*Core, body func(worker int, c *Core)) ParallelStats {
	return exec.RunParallel(cores, body)
}
