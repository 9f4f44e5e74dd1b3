package memsim

// Fabric models the shared path from the last-level cache to memory: the
// Nehalem "Global Queue" that holds at most LLCQueueEntries outstanding
// off-chip loads for the whole socket (Section 5.1.1 and Table 4 of the
// paper).
//
// The experiments simulate one representative hardware thread in detail and
// declare how many identical threads are active on each socket. When the
// aggregate off-chip demand — the representative thread's outstanding
// off-chip misses multiplied by the number of active threads sharing the
// socket — exceeds the queue capacity, each off-chip access observes a
// proportionally inflated latency. This analytic treatment of the other
// threads is the one deliberate departure from per-cycle simulation; it is
// what makes 64-thread sweeps tractable, and it reproduces the saturation at
// four threads on the Xeon (60 potential misses vs 32 queue entries) and the
// near-linear scaling on the T4.
type Fabric struct {
	queueEntries     int
	threadsPerSocket int

	extraCycles uint64 // total queueing delay added, for reporting
}

// NewFabric builds a fabric with the given off-chip queue capacity. The
// fabric starts with a single active thread.
func NewFabric(queueEntries int) *Fabric {
	return &Fabric{queueEntries: queueEntries, threadsPerSocket: 1}
}

// SetActiveThreads declares how many hardware threads currently share this
// socket's off-chip queue. Values below one are treated as one.
func (f *Fabric) SetActiveThreads(n int) {
	if n < 1 {
		n = 1
	}
	f.threadsPerSocket = n
}

// ActiveThreads returns the currently declared sharer count.
func (f *Fabric) ActiveThreads() int { return f.threadsPerSocket }

// OffchipLatency returns the latency of an off-chip access when the issuing
// thread already has `outstanding` off-chip misses in flight (including the
// one being issued), given the uncontended latency base.
func (f *Fabric) OffchipLatency(base uint64, outstanding int) uint64 {
	if outstanding < 1 {
		outstanding = 1
	}
	demand := outstanding * f.threadsPerSocket
	if demand <= f.queueEntries {
		return base
	}
	// Latency grows with the overload ratio: each request waits, on
	// average, for the excess requests ahead of it to drain.
	lat := base * uint64(demand) / uint64(f.queueEntries)
	f.extraCycles += lat - base
	return lat
}

// Reset clears accumulated statistics (the sharer count is preserved).
func (f *Fabric) Reset() { f.extraCycles = 0 }
