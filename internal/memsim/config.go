package memsim

import (
	"errors"
	"fmt"
)

// Addr is a simulated physical address. Addresses are produced by the arena
// allocator; the simulator only interprets them at cache-line and page
// granularity.
type Addr uint64

// LineSize is the cache-line size in bytes used throughout the simulator.
// Both machines evaluated in the paper use 64-byte lines, and all data
// structure nodes in the paper are aligned to this boundary.
const LineSize = 64

// lineShift converts an address to a cache-line number.
const lineShift = 6

// Line returns the cache-line number containing a.
func Line(a Addr) uint64 { return uint64(a) >> lineShift }

// CacheConfig describes one level of a set-associative cache.
type CacheConfig struct {
	// SizeBytes is the total capacity of the cache.
	SizeBytes int
	// Ways is the associativity; SizeBytes/(Ways*LineSize) gives the number
	// of sets, which need not be a power of two (the real Xeon L3 has
	// 12288 sets).
	Ways int
	// LatencyCycles is the load-to-use latency of a hit in this level.
	LatencyCycles uint64
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int {
	if c.Ways <= 0 {
		return 0
	}
	return c.SizeBytes / (c.Ways * LineSize)
}

func (c CacheConfig) validate(name string) error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("memsim: %s: size and ways must be positive", name)
	}
	if c.Sets() <= 0 {
		return fmt.Errorf("memsim: %s: configuration yields no sets", name)
	}
	return nil
}

// TLBConfig describes the data TLB.
type TLBConfig struct {
	// Entries is the number of page translations held (fully associative).
	Entries int
	// PageBytes is the page size; the paper uses large VM pages (2 MB on
	// x86, 4 MB on SPARC).
	PageBytes int
	// MissPenaltyCycles is charged for a page-table walk.
	MissPenaltyCycles uint64
}

// Config describes a simulated machine: one or more identical cores sharing a
// last-level cache and an off-chip access queue.
type Config struct {
	// Name identifies the configuration in reports (e.g. "Xeon x5670").
	Name string

	// FreqHz is the core clock, used only to convert cycles into seconds
	// for the throughput figures.
	FreqHz float64

	// IssueWidth is the peak number of instructions the core can retire per
	// cycle; it determines how much latency the out-of-order window can
	// hide around a demand miss.
	IssueWidth int

	// SustainedIPC is the issue rate the compute portions of the workloads
	// actually sustain (dependent address arithmetic, comparisons and
	// branches never reach the peak width; the paper's Table 3 measures at
	// most 2.4 IPC on the 4-wide Xeon). Zero selects 0.6 * IssueWidth.
	SustainedIPC float64

	L1D CacheConfig
	L2  CacheConfig
	L3  CacheConfig

	// MemLatencyCycles is the uncontended latency of an off-chip access,
	// measured from the L3 miss.
	MemLatencyCycles uint64

	// L1MSHRs is the number of L1-D miss-status-handling registers per
	// core: the maximum number of outstanding L1-D misses, and therefore
	// the per-core ceiling on memory-level parallelism (10 on Nehalem).
	// At most 64: the MSHR file keeps its slot sets in one 64-bit word.
	L1MSHRs int

	// LLCQueueEntries is the capacity of the shared off-chip load queue
	// (the Nehalem "Global Queue" holds 32 load entries). When the
	// aggregate off-chip demand of all active threads exceeds it, off-chip
	// latency inflates; see Fabric.
	LLCQueueEntries int

	TLB TLBConfig

	// Cores is the number of physical cores per socket.
	Cores int
	// SMTPerCore is the number of hardware threads per core.
	SMTPerCore int
	// Sockets is the number of sockets available (the paper's "2+2"
	// experiment uses two sockets, each with its own LLC and queue).
	Sockets int

	// DropPrefetchOnCacheHit models the SPARC T4 behaviour of discarding
	// software prefetches whose data is already on chip (Section 5.5).
	DropPrefetchOnCacheHit bool

	// DisableStreamPrefetcher turns off the hardware streaming prefetcher
	// model. Both evaluated machines have one; it is what makes the
	// sequential input-relation scans nearly free while doing nothing for
	// the dependent pointer chases that the software techniques target.
	DisableStreamPrefetcher bool

	// StreamTrackers and StreamDistance size the streaming prefetcher:
	// how many independent sequential streams it follows and how many
	// lines ahead it runs. Zero values select 8 and 4.
	StreamTrackers int
	StreamDistance int
}

// Validate checks internal consistency of the configuration.
func (c *Config) Validate() error {
	if c == nil {
		return errors.New("memsim: nil config")
	}
	if err := c.L1D.validate("L1D"); err != nil {
		return err
	}
	if err := c.L2.validate("L2"); err != nil {
		return err
	}
	if err := c.L3.validate("L3"); err != nil {
		return err
	}
	if c.IssueWidth <= 0 {
		return errors.New("memsim: issue width must be positive")
	}
	if c.L1MSHRs <= 0 {
		return errors.New("memsim: need at least one L1 MSHR")
	}
	if c.L1MSHRs > maxMSHRs {
		return fmt.Errorf("memsim: at most %d L1 MSHRs, got %d", maxMSHRs, c.L1MSHRs)
	}
	if c.LLCQueueEntries <= 0 {
		return errors.New("memsim: LLC queue must have at least one entry")
	}
	if c.TLB.Entries <= 0 || c.TLB.PageBytes <= 0 {
		return errors.New("memsim: TLB entries and page size must be positive")
	}
	if c.TLB.PageBytes&(c.TLB.PageBytes-1) != 0 {
		return errors.New("memsim: TLB page size must be a power of two")
	}
	if c.Cores <= 0 || c.SMTPerCore <= 0 || c.Sockets <= 0 {
		return errors.New("memsim: cores, SMT threads and sockets must be positive")
	}
	if c.FreqHz <= 0 {
		return errors.New("memsim: frequency must be positive")
	}
	if c.MemLatencyCycles == 0 {
		return errors.New("memsim: memory latency must be positive")
	}
	return nil
}

// ShareLLC returns a copy of the configuration whose L3 holds a 1/workers
// slice of the shared capacity. The parallel execution layer gives every
// worker a private System (Core, Cache and Fabric are not safe for concurrent
// use); shrinking each private L3 to its capacity share approximates workers
// whose partitions compete for one shared LLC. This is a documented first
// cut: it models capacity sharing but not inter-worker conflict misses or
// shared-line reuse. The slice is clamped so the cache keeps at least one
// set, and off-chip queue contention is modelled separately via
// System.SetActiveThreads.
func (c Config) ShareLLC(workers int) Config {
	if workers <= 1 {
		return c
	}
	share := c.L3.SizeBytes / workers
	min := c.L3.Ways * LineSize
	if share < min {
		share = min
	}
	c.L3.SizeBytes = share
	return c
}

// HardwareThreads returns the total number of hardware contexts on one socket.
func (c *Config) HardwareThreads() int { return c.Cores * c.SMTPerCore }

// XeonX5670 returns the model of the Intel Xeon x5670 (Westmere/Nehalem-class)
// socket used in the paper: 6 cores x 2 SMT at 2.93 GHz, 4-wide, 32 KB L1-D,
// 256 KB L2, 12 MB shared L3, 10 L1-D MSHRs, 32-entry off-chip load queue,
// 2 MB pages.
func XeonX5670() Config {
	return Config{
		Name:             "Xeon x5670",
		FreqHz:           2.93e9,
		IssueWidth:       4,
		SustainedIPC:     2.4,
		L1D:              CacheConfig{SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 4},
		L2:               CacheConfig{SizeBytes: 256 << 10, Ways: 8, LatencyCycles: 10},
		L3:               CacheConfig{SizeBytes: 12 << 20, Ways: 16, LatencyCycles: 38},
		MemLatencyCycles: 200,
		L1MSHRs:          10,
		LLCQueueEntries:  32,
		TLB: TLBConfig{
			Entries:           64,
			PageBytes:         2 << 20,
			MissPenaltyCycles: 30,
		},
		Cores:      6,
		SMTPerCore: 2,
		Sockets:    2,
	}
}

// SPARCT4 returns the model of the Oracle SPARC T4 socket used in the paper:
// 8 cores x 8 threads at 3 GHz, 2-wide, 16 KB L1-D, 128 KB L2, 4 MB shared L3,
// 4 MB pages. The T4's memory subsystem sustains many more outstanding
// off-chip requests than Nehalem's Global Queue, which is why the paper's
// Figure 8 scales with all eight cores; we model that with a larger queue.
// The T4 also drops software prefetches that already hit on chip.
func SPARCT4() Config {
	return Config{
		Name:             "SPARC T4",
		FreqHz:           3.0e9,
		IssueWidth:       2,
		SustainedIPC:     1.3,
		L1D:              CacheConfig{SizeBytes: 16 << 10, Ways: 4, LatencyCycles: 3},
		L2:               CacheConfig{SizeBytes: 128 << 10, Ways: 8, LatencyCycles: 12},
		L3:               CacheConfig{SizeBytes: 4 << 20, Ways: 16, LatencyCycles: 40},
		MemLatencyCycles: 220,
		L1MSHRs:          8,
		LLCQueueEntries:  128,
		TLB: TLBConfig{
			Entries:           128,
			PageBytes:         4 << 20,
			MissPenaltyCycles: 40,
		},
		Cores:                  8,
		SMTPerCore:             8,
		Sockets:                1,
		DropPrefetchOnCacheHit: true,
	}
}
