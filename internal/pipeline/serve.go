package pipeline

import (
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
