package memsim

import (
	"math/bits"

	"amac/internal/prof"
)

// Core simulates one hardware thread: it owns a private L1-D and L2, shares
// the L3 and off-chip queue of its System, and accounts both compute
// (abstract instructions) and memory time (cache hits, outstanding-miss
// waits, MSHR-full stalls, TLB walks).
//
// The execution engines and operator stage machines call Instr, Load, Store
// and Prefetch; everything else (figures, tables, throughput numbers) is
// derived from the resulting Stats.
//
// A Core is not safe for concurrent use.
type Core struct {
	cfg    *Config
	l1     *Cache
	l2     *Cache
	l3     *Cache
	mshr   *MSHRFile
	tlb    *TLB
	fabric *Fabric

	cycle uint64
	// memLat is the effective off-chip base latency. It normally equals
	// cfg.MemLatencyCycles; the fault injector inflates it during a shard
	// slowdown episode and restores it afterwards (SetMemLatency).
	memLat uint64
	// cpiNum/cpiDen express compute cycles per instruction as a rational
	// number: smtSharers / IssueWidth. Fractional cycles are accumulated in
	// instrAcc (in units of 1/cpiDen cycles) so accounting stays exact.
	cpiNum   uint64
	cpiDen   uint64
	cpiMagic uint64 // ceil(2^64/cpiDen), for division-free accounting
	instrAcc uint64

	smtSharers int

	// oooHide is the number of stall cycles per demand access that the
	// out-of-order window hides by executing independent instructions; see
	// defaultOoOHide and Config.IssueWidth.
	oooHide uint64

	// streams are the hardware streaming prefetcher's trackers: when a
	// demand access continues a tracked sequential stream, the prefetcher
	// runs a few lines ahead so scans (input relations, output buffers)
	// stay cheap, exactly as on the real machines. Pointer chases never
	// match a stream, so the software techniques keep their role.
	streams      []uint64 // next expected line per tracker, 0 = idle
	streamRR     int
	streamAhead  uint64
	streamEnable bool
	// lastStreamLine/lastStreamMiss memoize the previous streamCheck:
	// repeated demand accesses to one line (several fields of one node) are
	// the common case, and once a full tracker scan has proved no tracker
	// expects that line, retraining is the only remaining effect — trackers
	// are only ever written with line+1 values, so the scan result cannot
	// change until a different line is accessed.
	lastStreamLine uint64
	lastStreamMiss bool

	// offchipDemand is a peak-holding estimate of how many off-chip misses
	// this thread keeps in flight. The shared off-chip queue (Fabric) uses
	// it to model contention: the instantaneous outstanding count at issue
	// time underestimates pressure because the thread spends most of its
	// stalled time with a full MSHR file, so the peak (with slow decay) is
	// the better proxy for the load the thread places on the socket.
	offchipDemand int

	// Cycle hook (SetCycleHook): hookFn fires once per hookStep simulated
	// cycles from every clock-advancing path. hookNext is ^uint64(0) when no
	// hook is installed, so the fast paths pay one always-false compare and
	// never a call. The hook observes (metrics sampling); it must not touch
	// the core, so installing one cannot change simulated results.
	hookFn   func(cycle uint64)
	hookStep uint64
	hookNext uint64

	// prof, when non-nil, receives one charge for every cycle the clock
	// advances (SetProfiler). All charge calls are nil-safe single-branch
	// no-ops when disabled; attaching a profiler cannot change simulated
	// results because the profiler only observes.
	prof *prof.CoreProf

	stats Stats
}

// newCore is called by System.NewCore.
func newCore(cfg *Config, l3 *Cache, fabric *Fabric) *Core {
	c := &Core{
		cfg:    cfg,
		l1:     NewCache("L1D", cfg.L1D),
		l2:     NewCache("L2", cfg.L2),
		l3:     l3,
		tlb:    NewTLB(cfg.TLB),
		fabric: fabric,
	}
	c.SetSMTSharers(1)
	c.oooHide = defaultOoOHide(cfg)
	trackers := cfg.StreamTrackers
	if trackers <= 0 {
		trackers = 8
	}
	ahead := cfg.StreamDistance
	if ahead <= 0 {
		ahead = 4
	}
	c.streams = make([]uint64, trackers)
	c.streamAhead = uint64(ahead)
	c.streamEnable = !cfg.DisableStreamPrefetcher
	c.hookNext = ^uint64(0)
	c.memLat = cfg.MemLatencyCycles
	return c
}

// SetCycleHook installs fn to fire once per step simulated cycles (at cycles
// step, 2*step, ...), from whichever clock-advancing path first crosses each
// boundary; fn receives the boundary cycle. The observability layer installs
// metric samplers here. A nil fn or zero step removes the hook. The hook
// must only observe the core — it runs mid-charge and any mutation would
// corrupt the simulation.
func (c *Core) SetCycleHook(step uint64, fn func(cycle uint64)) {
	if fn == nil || step == 0 {
		c.hookFn = nil
		c.hookStep = 0
		c.hookNext = ^uint64(0)
		return
	}
	c.hookFn = fn
	c.hookStep = step
	c.hookNext = c.cycle + step
}

// SetProfiler attaches a cycle-attribution profiler: every subsequent clock
// advance charges its cycles to the profiler's current context under one
// prof.Cat category, so the per-category sums reconcile exactly with Stats
// total cycles. A nil profiler (the default) disables attribution at the
// cost of one predictable branch per advance. Like the cycle hook, the
// profiler only observes — attaching one never changes simulated results.
func (c *Core) SetProfiler(p *prof.CoreProf) { c.prof = p }

// Profiler returns the attached profiler, nil when disabled. Execution
// engines fetch it to push attribution context frames (technique, stage)
// around their work; all frame operations are nil-safe.
func (c *Core) Profiler() *prof.CoreProf { return c.prof }

// fireHook runs the cycle hook for every step boundary the clock has
// crossed. Kept out of line so the advancing fast paths stay small.
func (c *Core) fireHook() {
	if c.hookFn == nil {
		c.hookNext = ^uint64(0)
		return
	}
	for c.cycle >= c.hookNext {
		c.hookFn(c.hookNext)
		c.hookNext += c.hookStep
	}
}

// streamCheck feeds the hardware streaming prefetcher with a demand-accessed
// line. If the line continues a tracked stream, the prefetcher installs the
// next few lines; otherwise a tracker is (re)trained to expect the following
// line.
func (c *Core) streamCheck(line uint64) {
	if !c.streamEnable {
		return
	}
	if line == c.lastStreamLine && c.lastStreamMiss {
		// The previous access to this same line scanned every tracker and
		// matched none; training only writes line+1 values, so this access
		// cannot match either. Retrain directly — bit-identical to the scan.
		c.train(line)
		return
	}
	c.lastStreamLine = line
	for i := range c.streams {
		if c.streams[i] != 0 && line == c.streams[i] {
			// Install the whole fill window per level. Equivalent to
			// filling line by line: each cache sees the same operations in
			// the same order, and the caches share no state.
			ahead := int(c.streamAhead)
			c.l1.InsertSpan(line+1, ahead)
			c.l2.InsertSpan(line+1, ahead)
			c.l3.InsertSpan(line+1, ahead)
			c.streams[i] = line + 1
			c.stats.StreamFills += c.streamAhead
			c.lastStreamMiss = false
			return
		}
	}
	c.lastStreamMiss = true
	c.train(line)
}

// train (re)trains the round-robin tracker to expect the line after the one
// just demanded.
func (c *Core) train(line uint64) {
	c.streams[c.streamRR] = line + 1
	if c.streamRR++; c.streamRR == len(c.streams) {
		c.streamRR = 0
	}
}

// defaultOoOHide derives the per-access latency the out-of-order engine hides
// from the issue width: wider cores find more independent work around a miss.
func defaultOoOHide(cfg *Config) uint64 {
	switch {
	case cfg.IssueWidth >= 4:
		return 35
	case cfg.IssueWidth >= 2:
		return 12
	default:
		return 4
	}
}

// SetSMTSharers declares how many hardware threads share this core's pipeline
// and MSHRs. The representative thread then retires instructions at
// SustainedIPC/n per cycle and may keep only L1MSHRs/n misses outstanding.
// Calling it resets the MSHR file.
func (c *Core) SetSMTSharers(n int) {
	if n < 1 {
		n = 1
	}
	c.smtSharers = n
	ipc := c.cfg.SustainedIPC
	if ipc <= 0 {
		ipc = 0.6 * float64(c.cfg.IssueWidth)
	}
	// cycles per instruction = sharers / ipc, kept as an exact rational in
	// tenths of an instruction per cycle.
	c.cpiNum = uint64(n) * 10
	c.cpiDen = uint64(ipc*10 + 0.5)
	if c.cpiDen == 0 {
		c.cpiDen = 1
	}
	// cpiDen == 1 would wrap the magic to 0; Instr special-cases it anyway
	// (division by one needs no division).
	c.cpiMagic = 0
	if c.cpiDen > 1 {
		c.cpiMagic = ^uint64(0)/c.cpiDen + 1
	}
	c.instrAcc = 0
	budget := c.cfg.L1MSHRs / n
	if budget < 1 {
		budget = 1
	}
	if c.mshr != nil && c.mshr.Size() == budget {
		// Same register count: clearing the file is state-identical to a
		// fresh one, and recycled cores (AcquireSystem) stay allocation-free.
		c.mshr.Reset()
		return
	}
	c.mshr = NewMSHRFile(budget)
}

// Config returns the machine configuration this core simulates.
func (c *Core) Config() *Config { return c.cfg }

// Cycle returns the current simulated cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Seconds converts the current cycle count to seconds at the configured
// clock frequency.
func (c *Core) Seconds() float64 { return float64(c.cycle) / c.cfg.FreqHz }

// Stats returns a snapshot of the counters; Cycles is filled in from the
// current cycle.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.cycle
	return s
}

// ResetStats zeroes counters and the cycle clock but keeps cache, TLB and
// MSHR contents, so a measured phase can start against a warmed hierarchy
// (for example probing a hash table that a build phase just populated).
func (c *Core) ResetStats() {
	c.stats = Stats{}
	c.cycle = 0
	c.instrAcc = 0
	c.mshr.Reset()
	// Attribution restarts with the clock, keeping the conservation
	// invariant (profiler totals == Stats.Cycles) across the reset.
	c.prof.ResetCounts()
	if c.hookFn != nil {
		// The clock restarted; re-arm the hook at its first boundary.
		c.hookNext = c.hookStep
	}
}

// Reset restores the core to a cold state — caches, TLB, MSHRs, stream
// trackers, demand estimate, counters — exactly as newCore leaves it, so a
// recycled core is bit-identical to a fresh one. The shared L3 is not
// touched; use System.Reset for that.
func (c *Core) Reset() {
	c.l1.Reset()
	c.l2.Reset()
	c.tlb.Reset()
	c.SetSMTSharers(1)
	c.oooHide = defaultOoOHide(c.cfg)
	for i := range c.streams {
		c.streams[i] = 0
	}
	c.streamRR = 0
	c.lastStreamLine = 0
	c.lastStreamMiss = false
	c.offchipDemand = 0
	c.stats = Stats{}
	c.cycle = 0
	c.instrAcc = 0
	c.hookFn = nil
	c.hookStep = 0
	c.hookNext = ^uint64(0)
	c.prof = nil
	c.memLat = c.cfg.MemLatencyCycles
}

// SetMemLatency overrides the off-chip base latency in cycles; zero restores
// the configured value. The fault injector uses it to model a shard whose
// memory system has slowed (a degraded node, a noisy neighbour): every
// off-chip fill and the queue model see the inflated base until the episode
// ends. Callers must restore before recycling the core (Reset also restores).
func (c *Core) SetMemLatency(cycles uint64) {
	if cycles == 0 {
		cycles = c.cfg.MemLatencyCycles
	}
	c.memLat = cycles
}

// MemLatency returns the effective off-chip base latency in cycles.
func (c *Core) MemLatency() uint64 { return c.memLat }

// FlushPrivate empties the core's private caches, TLB and stream trackers
// without touching the clock, counters, hooks or the shared L3 — the state a
// crashed shard restarts with. The first accesses after a flush miss and
// re-warm, which is exactly the cold-restart penalty the fault injector
// wants to charge.
func (c *Core) FlushPrivate() {
	c.l1.Reset()
	c.l2.Reset()
	c.tlb.Reset()
	for i := range c.streams {
		c.streams[i] = 0
	}
	c.streamRR = 0
	c.lastStreamLine = 0
	c.lastStreamMiss = false
}

// L1 returns the private first-level data cache (exposed for tests).
func (c *Core) L1() *Cache { return c.l1 }

// L2 returns the private second-level cache (exposed for tests).
func (c *Core) L2() *Cache { return c.l2 }

// MSHROutstanding returns the number of misses currently in flight.
func (c *Core) MSHROutstanding() int { return c.mshr.Outstanding() }

// MSHRBudget returns the number of L1 miss-status registers available to the
// representative thread (L1MSHRs divided by the SMT sharer count, at least
// one). It is the hardware's memory-level-parallelism limit: the paper finds
// AMAC's throughput saturates once the slot window covers it, so width
// controllers use it as their starting width.
func (c *Core) MSHRBudget() int { return c.mshr.Size() }

// Instr charges n abstract instructions of compute. Cycles advance at the
// core's effective issue width. Instr runs for every simulated instruction
// charge, so whole-cycle extraction avoids the hardware divide: a Lemire
// round-up multiply is exact for accumulators below 2^32 (the accumulator
// stays below cpiDen between calls, so only an absurd single charge could
// exceed that; the slow path keeps it correct anyway).
func (c *Core) Instr(n int) {
	if n <= 0 {
		return
	}
	c.stats.Instructions += uint64(n)
	c.instrAcc += uint64(n) * c.cpiNum
	if c.instrAcc < c.cpiDen {
		return
	}
	var adv uint64
	switch {
	case c.cpiDen == 1:
		adv = c.instrAcc
	case c.instrAcc < 1<<32:
		adv, _ = bits.Mul64(c.cpiMagic, c.instrAcc)
	default:
		adv = c.instrAcc / c.cpiDen
	}
	c.instrAcc -= adv * c.cpiDen
	c.cycle += adv
	c.prof.Charge(prof.CatCompute, adv)
	if c.cycle >= c.hookNext {
		c.fireHook()
	}
}

// advance moves the clock forward by stall cycles (memory time), attributing
// them to the given category.
func (c *Core) advance(cycles uint64, cat prof.Cat) {
	c.cycle += cycles
	c.stats.StallCycles += cycles
	c.prof.Charge(cat, cycles)
	if c.cycle >= c.hookNext {
		c.fireHook()
	}
}

// AdvanceTo moves the clock forward to the given cycle without charging any
// work: the core is idle because an open-loop request source has nothing
// admitted yet (the streaming engines call it to sleep until the next
// arrival). Idle time is recorded separately from memory stalls so serving
// runs can distinguish "waiting on DRAM" from "waiting on traffic". A target
// in the past is a no-op.
func (c *Core) AdvanceTo(target uint64) {
	if target <= c.cycle {
		return
	}
	c.stats.IdleCycles += target - c.cycle
	c.prof.Charge(prof.CatIdle, target-c.cycle)
	c.cycle = target
	if c.cycle >= c.hookNext {
		c.fireHook()
	}
}

// fill installs a line into the private hierarchy and the shared L3.
func (c *Core) fill(line uint64) {
	c.l1.Insert(line)
	c.l2.Insert(line)
	c.l3.Insert(line)
}

// drainMSHRs retires every outstanding miss whose data has arrived. The
// guard is duplicated from Drain so the no-op case — nothing outstanding, or
// nothing due yet — inlines into every demand access without a call.
func (c *Core) drainMSHRs() {
	if c.cycle < c.mshr.minReady {
		return
	}
	c.mshr.Drain(c.cycle, c.fill)
}

// translate charges a TLB walk if needed.
func (c *Core) translate(a Addr) {
	if !c.tlb.Translate(a) {
		c.stats.TLBMisses++
		c.advance(c.tlb.Penalty(), prof.CatTLB)
	}
}

// hidden applies the out-of-order window's latency hiding to a demand stall.
func (c *Core) hidden(stall uint64) uint64 {
	if stall <= c.oooHide {
		return 0
	}
	return stall - c.oooHide
}

// missLatency determines where a line's data lives (L2, L3 or memory) and
// returns the total fill latency from the L1 miss, along with the
// attribution category of the fill level (CatDRAM means off-chip). Lower-
// level lookups update those caches' hit statistics and recency, mirroring
// an inclusive hierarchy.
func (c *Core) missLatency(line uint64) (lat uint64, src prof.Cat) {
	if c.l2.Lookup(line) {
		c.stats.L2Hits++
		return c.l2.Latency(), prof.CatL2
	}
	if c.l3.Lookup(line) {
		c.stats.L3Hits++
		return c.l2.Latency() + c.l3.Latency(), prof.CatLLC
	}
	c.stats.MemAccesses++
	outstanding := c.mshr.OutstandingOffchip() + 1
	// Peak-hold with slow decay: see the offchipDemand field comment.
	c.offchipDemand = c.offchipDemand * 31 / 32
	if outstanding > c.offchipDemand {
		c.offchipDemand = outstanding
	}
	mem := c.fabric.OffchipLatency(c.memLat, c.offchipDemand)
	c.stats.OffchipQueueExtra += mem - c.memLat
	c.prof.OffchipFill(mem)
	return c.l2.Latency() + c.l3.Latency() + mem, prof.CatDRAM
}

// waitForMSHR stalls until at least one MSHR is free, draining completions.
func (c *Core) waitForMSHR() {
	for c.mshr.Full() {
		ready, ok := c.mshr.EarliestReady()
		if !ok {
			return
		}
		if ready > c.cycle {
			wait := ready - c.cycle
			c.stats.MSHRFullStalls++
			c.stats.MSHRFullWaitCycles += wait
			c.advance(wait, prof.CatMSHRFull)
		}
		c.drainMSHRs()
	}
}

// demandLine performs a blocking access to one cache line.
func (c *Core) demandLine(line uint64) {
	c.drainMSHRs()
	c.streamCheck(line)

	if c.l1.Lookup(line) {
		c.stats.L1Hits++
		c.advance(c.hidden(c.l1.Latency()), prof.CatL1)
		return
	}

	// The line may already be in flight thanks to an earlier prefetch: the
	// access waits only for the remaining latency (an "MSHR hit"). The wait
	// is attributed to the in-flight fill's level, and the visible part is
	// latency the prefetch failed to hide — Expose claws it back from the
	// Hide the prefetch recorded at allocation.
	if i := c.mshr.Lookup(line); i >= 0 {
		c.stats.MSHRHits++
		if ready := c.mshr.ready[i]; ready > c.cycle {
			wait := ready - c.cycle
			c.stats.MSHRHitWaitCycles += wait
			visible := c.hidden(wait)
			cat := c.mshr.cat[i]
			c.advance(visible, cat)
			c.prof.Expose(cat, visible)
			// The data has now (logically) arrived even if hiding
			// shortened the visible stall.
			c.mshr.Expedite(i, c.cycle)
		}
		c.drainMSHRs()
		if !c.l1.Contains(line) {
			c.fill(line)
		}
		return
	}

	// True miss: block for the full fill latency. The out-of-order window's
	// contribution (total minus visible) counts as hidden latency at the
	// fill level.
	lat, src := c.missLatency(line)
	tot := c.l1.Latency() + lat
	visible := c.hidden(tot)
	c.advance(visible, src)
	c.prof.Hide(src, tot-visible)
	c.fill(line)
}

// Load performs a blocking read of size bytes at address a, charging one
// instruction plus memory time for every cache line touched.
func (c *Core) Load(a Addr, size int) {
	c.Instr(1)
	c.stats.Loads++
	c.translate(a)
	c.accessLines(a, size)
}

// Store performs a blocking write of size bytes at address a. The model
// treats it as read-for-ownership: same latency as a load.
func (c *Core) Store(a Addr, size int) {
	c.Instr(1)
	c.stats.Stores++
	c.translate(a)
	c.accessLines(a, size)
}

func (c *Core) accessLines(a Addr, size int) {
	if size <= 0 {
		size = 1
	}
	first := Line(a)
	last := Line(a + Addr(size) - 1)
	if first == last {
		// Node fields and tuples fit one cache line; skip the loop set-up.
		c.demandLine(first)
		return
	}
	for line := first; line <= last; line++ {
		c.demandLine(line)
	}
}

// Prefetch issues a non-blocking fetch of the line containing a. It charges
// one instruction; if the line is already on chip or in flight it is dropped,
// otherwise it occupies an MSHR until its data arrives. If every MSHR is busy
// the core stalls until one frees — this is the hardware ceiling on MLP.
func (c *Core) Prefetch(a Addr) {
	c.Instr(1)
	c.stats.Prefetches++
	c.translate(a)
	c.drainMSHRs()

	line := Line(a)
	if c.l1.Contains(line) || c.mshr.Lookup(line) >= 0 {
		c.stats.PrefetchDropped++
		return
	}
	if c.cfg.DropPrefetchOnCacheHit && (c.l2.Contains(line) || c.l3.Contains(line)) {
		// SPARC T4 discards prefetches that hit on chip (Section 5.5).
		c.stats.PrefetchDropped++
		return
	}

	c.waitForMSHR()
	c.drainMSHRs()
	lat, src := c.missLatency(line)
	c.mshr.Allocate(line, c.cycle+lat, src)
	// The whole fill latency is scheduled off the critical path; any part a
	// demand access later waits out is Exposed on the MSHR-hit path.
	c.prof.Hide(src, lat)
	c.stats.PrefetchIssued++
}

// PrefetchSpan prefetches every line covered by [a, a+size).
func (c *Core) PrefetchSpan(a Addr, size int) {
	if size <= 0 {
		size = 1
	}
	first := Line(a)
	last := Line(a + Addr(size) - 1)
	if first == last {
		// Single-line nodes are the common case for every operator.
		c.Prefetch(Addr(first << lineShift))
		return
	}
	for line := first; line <= last; line++ {
		c.Prefetch(Addr(line << lineShift))
	}
}

// Touch installs the lines covering [a, a+size) into the hierarchy without
// charging any time or statistics, as if each line in ascending order were
// filled into the L1, L2 and L3. It is used to pre-warm caches to a
// realistic state before a measured phase (for example, the LLC-sized tail
// of a hash table a build just wrote) and by tests. A line past the
// simulator's address-space bound panics here. The fills are deferred: each
// cache records the lines as a pending run, which consecutive Touch calls
// extend and the cache's next access applies in bulk (see Cache), so
// warming line by line costs no more than one Touch of the whole range.
func (c *Core) Touch(a Addr, size int) {
	if size <= 0 {
		size = 1
	}
	first := Line(a)
	last := Line(a + Addr(size) - 1)
	// A span that wraps past 2^64 starts far beyond the bound.
	tagOf(max(first, last))
	n := last - first + 1
	c.l1.touch(first, n)
	c.l2.touch(first, n)
	c.l3.touch(first, n)
}
