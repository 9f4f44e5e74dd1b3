package pipeline

import (
	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/serve"
)

// ServingSpec configures a serving pipeline's admission edge: requests enter
// the ROOT stage's bounded queue on the arrival schedule, flow through the
// whole plan, and are complete when the SINK finishes them — so the recorded
// latency covers every stage plus all queueing in between.
type ServingSpec struct {
	// Arrivals is the open-loop arrival schedule: request i (root lookup i)
	// arrives at cycle Arrivals[i]; non-decreasing.
	Arrivals []uint64
	// QueueCap bounds the root admission queue (zero = unbounded).
	QueueCap int
	// Policy says what a full queue does with new arrivals.
	Policy serve.Policy
	// Out is the sink collector (nil for a plan ending in Aggregate).
	Out ops.Collector
	// Latency, if non-nil, receives end-to-end admission→completion
	// latencies: one record per request the SINK stage finishes (match or
	// not), measured from the request's original arrival cycle. A request
	// whose row stream dies upstream (an early-exit probe with no match)
	// records nothing here — its response happened at that stage, visible
	// through Queue and the stage row counts.
	Latency *serve.Recorder
	// Queue, if non-nil, receives the root queue's bookkeeping: offered
	// counts, drops, depth samples, queue waits, and the ROOT operator's
	// own completion latencies (not end-to-end).
	Queue *serve.Recorder
}

// ServeParallel runs one pre-built serving pipeline per worker, each on a
// private core of the shared-LLC socket model, concurrently on real
// goroutines — the pipeline analogue of serve.Run. Each worker's pipeline
// must live entirely in its OWN arena, probed structures included: a run
// writes its arena image (output collectors, pipes and latches live there),
// and arena writes need exclusive access, so the supported sharing model is
// a private copy per worker, exactly as ops.PartitionJoin does for the single-operator
// layer. That isolation is also what makes the merged result deterministic
// regardless of the goroutine schedule.
//
// prepare, if non-nil, warms each worker's core before measurement; body
// then drives that worker's pipeline (p.Run or p.RunAdaptive) with its own
// recorders. Per-worker latency/queue recorders live in each pipeline's
// ServingSpec; merge them after ServeParallel returns.
func ServeParallel(hw memsim.Config, pipes []*Pipeline,
	prepare func(w int, c *memsim.Core),
	body func(w int, c *memsim.Core, p *Pipeline),
) exec.ParallelStats {
	n := len(pipes)
	if n == 0 {
		return exec.ParallelStats{}
	}
	shared := hw.ShareLLC(n)
	pooled := make([]*memsim.PooledSystem, n)
	cores := make([]*memsim.Core, n)
	for w := 0; w < n; w++ {
		pooled[w] = memsim.AcquireSystem(shared)
		cores[w] = pooled[w].Core
		pooled[w].Sys.SetActiveThreads(n, cores[w])
		if prepare != nil {
			prepare(w, cores[w])
		}
		cores[w].ResetStats()
	}
	ps := exec.RunParallel(cores, func(w int, c *memsim.Core) {
		body(w, c, pipes[w])
	})
	for w := 0; w < n; w++ {
		pooled[w].Release()
	}
	return ps
}
