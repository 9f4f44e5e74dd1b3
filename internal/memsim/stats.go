package memsim

import "fmt"

// Stats aggregates the counters a hardware PMU would expose. The paper's
// Table 3 and Table 4 are read directly from these fields.
type Stats struct {
	Cycles       uint64 // total simulated cycles
	Instructions uint64 // abstract instructions retired
	StallCycles  uint64 // cycles spent waiting on memory (subset of Cycles)
	IdleCycles   uint64 // cycles spent waiting for requests to arrive (subset of Cycles)

	Loads      uint64
	Stores     uint64
	Prefetches uint64

	L1Hits      uint64
	L2Hits      uint64
	L3Hits      uint64
	MemAccesses uint64 // demand or prefetch fills served from memory

	// MSHRHits counts demand accesses that found their line already being
	// fetched (outstanding miss): the data was requested early enough but
	// had not yet arrived. This is the "L1-D MSHR hits" row of Table 4.
	MSHRHits uint64
	// MSHRHitWaitCycles is the time demand accesses spent waiting on those
	// outstanding fills.
	MSHRHitWaitCycles uint64
	// MSHRFullStalls counts accesses that had to wait for a free MSHR.
	MSHRFullStalls uint64
	// MSHRFullWaitCycles is the time spent in those waits.
	MSHRFullWaitCycles uint64

	TLBMisses       uint64
	PrefetchDropped uint64 // prefetches filtered because the line was already on chip or in flight
	PrefetchIssued  uint64 // prefetches that allocated an MSHR

	// OffchipQueueExtra is the additional latency (cycles) injected by the
	// shared off-chip queue model under multi-thread contention.
	OffchipQueueExtra uint64

	// StreamFills counts lines installed by the hardware streaming
	// prefetcher model.
	StreamFills uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MSHRHitsPerKiloInstr returns MSHR hits per thousand instructions, the
// second row of the paper's Table 4.
func (s Stats) MSHRHitsPerKiloInstr() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.MSHRHits) / float64(s.Instructions)
}

// memoryAccessesPerLoad returns the fraction of demand loads that reached
// memory, a locality summary used in sanity checks.
func (s Stats) memoryAccessesPerLoad() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.MemAccesses) / float64(s.Loads)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.Instructions += other.Instructions
	s.StallCycles += other.StallCycles
	s.IdleCycles += other.IdleCycles
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.Prefetches += other.Prefetches
	s.L1Hits += other.L1Hits
	s.L2Hits += other.L2Hits
	s.L3Hits += other.L3Hits
	s.MemAccesses += other.MemAccesses
	s.MSHRHits += other.MSHRHits
	s.MSHRHitWaitCycles += other.MSHRHitWaitCycles
	s.MSHRFullStalls += other.MSHRFullStalls
	s.MSHRFullWaitCycles += other.MSHRFullWaitCycles
	s.TLBMisses += other.TLBMisses
	s.PrefetchDropped += other.PrefetchDropped
	s.PrefetchIssued += other.PrefetchIssued
	s.OffchipQueueExtra += other.OffchipQueueExtra
	s.StreamFills += other.StreamFills
}

// MergeParallel combines the stats of workers that simulated concurrently on
// private cores: elapsed time is the slowest worker's cycle count (the
// workers run side by side, so wall-clock time is a max, not a sum), while
// every event counter — instructions, loads, hits, misses, prefetches — is
// summed across workers. In the merged result StallCycles (and the other
// wait-cycle counters) aggregate over all workers and may therefore exceed
// Cycles.
func MergeParallel(perWorker []Stats) Stats {
	var merged Stats
	for _, w := range perWorker {
		slowest := merged.Cycles
		if w.Cycles > slowest {
			slowest = w.Cycles
		}
		merged.Add(w)
		merged.Cycles = slowest
	}
	return merged
}

// String renders a compact one-line summary, useful in logs and test output.
func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d instr=%d ipc=%.2f loads=%d l1=%d l2=%d l3=%d mem=%d mshrHits=%d tlbMiss=%d",
		s.Cycles, s.Instructions, s.IPC(), s.Loads, s.L1Hits, s.L2Hits, s.L3Hits, s.MemAccesses, s.MSHRHits, s.TLBMisses)
}
