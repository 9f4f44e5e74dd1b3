package memsim

import "testing"

// testConfig returns a small, fast configuration convenient for unit tests:
// tiny caches so evictions happen quickly, short latencies that are easy to
// reason about, no out-of-order hiding unless a test enables it.
func testConfig() Config {
	return Config{
		Name:             "test",
		FreqHz:           1e9,
		IssueWidth:       1,
		SustainedIPC:     1,
		L1D:              CacheConfig{SizeBytes: 4 * LineSize, Ways: 1, LatencyCycles: 1},
		L2:               CacheConfig{SizeBytes: 16 * LineSize, Ways: 2, LatencyCycles: 10},
		L3:               CacheConfig{SizeBytes: 64 * LineSize, Ways: 4, LatencyCycles: 30},
		MemLatencyCycles: 100,
		L1MSHRs:          2,
		LLCQueueEntries:  8,
		TLB:              TLBConfig{Entries: 16, PageBytes: 1 << 20, MissPenaltyCycles: 0},
		Cores:            2,
		SMTPerCore:       2,
		Sockets:          1,
	}
}

func newTestCore(t *testing.T) (*System, *Core) {
	t.Helper()
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	c := sys.NewCore()
	c.oooHide = 0
	return sys, c
}

func TestInstrAdvancesByIssueWidth(t *testing.T) {
	cfg := testConfig()
	cfg.IssueWidth = 4
	cfg.SustainedIPC = 4
	sys := MustSystem(cfg)
	c := sys.NewCore()
	c.Instr(8)
	if c.Cycle() != 2 {
		t.Fatalf("8 instructions at width 4 should take 2 cycles, got %d", c.Cycle())
	}
	c.Instr(1)
	c.Instr(1)
	c.Instr(1)
	c.Instr(1)
	if c.Cycle() != 3 {
		t.Fatalf("fractional cycles lost: cycle = %d, want 3", c.Cycle())
	}
	if c.Stats().Instructions != 12 {
		t.Fatalf("Instructions = %d, want 12", c.Stats().Instructions)
	}
}

func TestColdLoadPaysFullMemoryLatency(t *testing.T) {
	_, c := newTestCore(t)
	c.Load(0, 8)
	// 1 instruction + L1 lat (1) + L2 lat (10) + L3 lat (30) + mem (100).
	want := uint64(1 + 1 + 10 + 30 + 100)
	if c.Cycle() != want {
		t.Fatalf("cold load took %d cycles, want %d", c.Cycle(), want)
	}
	s := c.Stats()
	if s.MemAccesses != 1 || s.L1Hits != 0 {
		t.Fatalf("stats after cold load: %+v", s)
	}
}

func TestRepeatLoadHitsL1(t *testing.T) {
	_, c := newTestCore(t)
	c.Load(0, 8)
	before := c.Cycle()
	c.Load(8, 8) // same cache line
	if got := c.Cycle() - before; got != 1+1 {
		t.Fatalf("L1 hit took %d cycles, want 2 (instr+L1)", got)
	}
	if c.Stats().L1Hits != 1 {
		t.Fatalf("L1Hits = %d, want 1", c.Stats().L1Hits)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	_, c := newTestCore(t)
	c.Prefetch(0)
	// Burn enough compute for the prefetch to complete: latency is 141.
	c.Instr(200)
	before := c.Cycle()
	c.Load(0, 8)
	if got := c.Cycle() - before; got != 2 {
		t.Fatalf("prefetched load took %d cycles, want 2", got)
	}
	s := c.Stats()
	if s.PrefetchIssued != 1 {
		t.Fatalf("PrefetchIssued = %d, want 1", s.PrefetchIssued)
	}
	if s.MSHRHits != 0 {
		t.Fatalf("load after completed prefetch should not be an MSHR hit, got %d", s.MSHRHits)
	}
}

func TestEarlyLoadIsMSHRHit(t *testing.T) {
	_, c := newTestCore(t)
	c.Prefetch(0)
	c.Instr(10) // not enough to cover the ~141-cycle fill
	before := c.Cycle()
	c.Load(0, 8)
	s := c.Stats()
	if s.MSHRHits != 1 {
		t.Fatalf("MSHRHits = %d, want 1", s.MSHRHits)
	}
	elapsed := c.Cycle() - before
	if elapsed == 0 || elapsed >= 141 {
		t.Fatalf("MSHR hit should wait for the remaining latency only, waited %d", elapsed)
	}
}

func TestPrefetchDroppedWhenLineResident(t *testing.T) {
	_, c := newTestCore(t)
	c.Load(0, 8)
	c.Prefetch(0)
	if c.Stats().PrefetchDropped != 1 {
		t.Fatalf("PrefetchDropped = %d, want 1", c.Stats().PrefetchDropped)
	}
	// A second prefetch of an in-flight line is also dropped.
	c.Prefetch(LineSize * 100)
	c.Prefetch(LineSize * 100)
	if c.Stats().PrefetchDropped != 2 {
		t.Fatalf("PrefetchDropped = %d, want 2", c.Stats().PrefetchDropped)
	}
}

func TestMSHRLimitCapsInFlightPrefetches(t *testing.T) {
	_, c := newTestCore(t) // 2 MSHRs
	c.Prefetch(0 * LineSize)
	c.Prefetch(100 * LineSize)
	if c.MSHROutstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", c.MSHROutstanding())
	}
	before := c.Cycle()
	c.Prefetch(200 * LineSize) // must stall until an MSHR frees
	if c.Stats().MSHRFullStalls != 1 {
		t.Fatalf("MSHRFullStalls = %d, want 1", c.Stats().MSHRFullStalls)
	}
	if c.Cycle() <= before {
		t.Fatal("third prefetch should have stalled the core")
	}
}

func TestT4DropsPrefetchThatHitsOnChip(t *testing.T) {
	cfg := testConfig()
	cfg.DropPrefetchOnCacheHit = true
	sys := MustSystem(cfg)
	c := sys.NewCore()
	c.oooHide = 0

	// Load a line, then evict it from L1 by loading conflicting lines
	// (L1 is direct-mapped with 4 sets in the test config).
	c.Load(0, 8)
	c.Load(4*LineSize, 8)
	if c.L1().Contains(0) {
		t.Skip("line unexpectedly still in L1; eviction pattern changed")
	}
	c.Prefetch(0) // hits in L2/L3, so the T4 drops it
	if c.Stats().PrefetchIssued != 0 {
		t.Fatalf("PrefetchIssued = %d, want 0 (dropped on chip)", c.Stats().PrefetchIssued)
	}
}

func TestSMTSharersSlowIssueAndSplitMSHRs(t *testing.T) {
	cfg := testConfig()
	cfg.IssueWidth = 2
	cfg.SustainedIPC = 2
	cfg.L1MSHRs = 4
	sys := MustSystem(cfg)
	c := sys.NewCore()
	c.SetSMTSharers(2)
	if c.smtSharers != 2 {
		t.Fatalf("smtSharers = %d", c.smtSharers)
	}
	c.Instr(4)
	if c.Cycle() != 4 {
		t.Fatalf("4 instructions at width 2 shared by 2 should take 4 cycles, got %d", c.Cycle())
	}
	if c.mshr.Size() != 2 {
		t.Fatalf("MSHR budget = %d, want 2", c.mshr.Size())
	}
}

func TestOoOHidingShortensDemandStalls(t *testing.T) {
	cfg := testConfig()
	sys := MustSystem(cfg)
	c := sys.NewCore()
	c.oooHide = 1000 // hide everything
	c.Load(0, 8)
	if c.Cycle() != 1 {
		t.Fatalf("with full hiding a load should cost only its instruction, got %d cycles", c.Cycle())
	}
}

func TestMultiLineLoadTouchesEachLine(t *testing.T) {
	_, c := newTestCore(t)
	c.Load(LineSize-8, 16) // spans two lines
	s := c.Stats()
	if s.MemAccesses != 2 {
		t.Fatalf("MemAccesses = %d, want 2 (two lines)", s.MemAccesses)
	}
}

func TestResetStatsKeepsWarmCaches(t *testing.T) {
	_, c := newTestCore(t)
	c.Load(0, 8)
	c.ResetStats()
	if c.Cycle() != 0 || c.Stats().Loads != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	c.Load(0, 8)
	if c.Stats().L1Hits != 1 {
		t.Fatal("cache contents should survive ResetStats")
	}
	c.Reset()
	c.Load(0, 8)
	if c.Stats().L1Hits != 0 {
		t.Fatal("Reset should cold-start the caches")
	}
}

func TestTouchWarmsWithoutCharging(t *testing.T) {
	_, c := newTestCore(t)
	c.Touch(0, 128)
	if c.Cycle() != 0 || c.Stats().Loads != 0 {
		t.Fatal("Touch must not charge time or stats")
	}
	c.Load(0, 8)
	if c.Stats().L1Hits != 1 {
		t.Fatal("Touch should have installed the line")
	}
}

func TestStoreChargedLikeLoad(t *testing.T) {
	_, c := newTestCore(t)
	c.Store(0, 8)
	if c.Stats().Stores != 1 || c.Cycle() == 0 {
		t.Fatalf("store not charged: %+v", c.Stats())
	}
}

func TestSystemSetActiveThreads(t *testing.T) {
	cfg := testConfig() // 2 cores, 2 SMT
	sys := MustSystem(cfg)
	c := sys.NewCore()

	sys.SetActiveThreads(2, c)
	if c.smtSharers != 1 {
		t.Fatalf("2 threads on 2 cores should not share, got %d sharers", c.smtSharers)
	}
	sys.SetActiveThreads(3, c)
	if c.smtSharers != 2 {
		t.Fatalf("3 threads on 2 cores: busiest core has 2, got %d", c.smtSharers)
	}
	if sys.Fabric().ActiveThreads() != 3 {
		t.Fatalf("fabric sharers = %d, want 3", sys.Fabric().ActiveThreads())
	}
	if sys.ActiveThreads() != 3 {
		t.Fatalf("ActiveThreads = %d, want 3", sys.ActiveThreads())
	}
}

func TestSecondsUsesFrequency(t *testing.T) {
	cfg := testConfig()
	cfg.FreqHz = 2e9
	sys := MustSystem(cfg)
	c := sys.NewCore()
	c.Instr(4) // 4 cycles at width 1
	if got := c.Seconds(); got != 2e-9 {
		t.Fatalf("Seconds = %g, want 2e-9", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.L1MSHRs = 0 },
		func(c *Config) { c.LLCQueueEntries = 0 },
		func(c *Config) { c.TLB.Entries = 0 },
		func(c *Config) { c.TLB.PageBytes = 3000 },
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.FreqHz = 0 },
		func(c *Config) { c.MemLatencyCycles = 0 },
		func(c *Config) { c.L1D.SizeBytes = 0 },
	}
	for i, mutate := range cases {
		bad := testConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	var nilCfg *Config
	if err := nilCfg.Validate(); err == nil {
		t.Fatal("nil config accepted")
	}
}

func TestPresetConfigsValid(t *testing.T) {
	for _, cfg := range []Config{XeonX5670(), SPARCT4()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	x := XeonX5670()
	if x.L1MSHRs != 10 || x.LLCQueueEntries != 32 || x.Cores != 6 {
		t.Fatalf("Xeon parameters drifted from the paper: %+v", x)
	}
	if x.HardwareThreads() != 12 {
		t.Fatalf("Xeon hardware threads = %d, want 12", x.HardwareThreads())
	}
	t4 := SPARCT4()
	if t4.Cores != 8 || t4.SMTPerCore != 8 || !t4.DropPrefetchOnCacheHit {
		t.Fatalf("T4 parameters drifted from the paper: %+v", t4)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := Stats{Cycles: 200, Instructions: 100, MSHRHits: 5}
	if s.IPC() != 0.5 {
		t.Fatalf("IPC = %v", s.IPC())
	}
	if s.MSHRHitsPerKiloInstr() != 50 {
		t.Fatalf("MSHR hits/k-instr = %v", s.MSHRHitsPerKiloInstr())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.MSHRHitsPerKiloInstr() != 0 || zero.memoryAccessesPerLoad() != 0 {
		t.Fatal("zero stats should yield zero ratios")
	}
	other := Stats{Cycles: 1, Instructions: 2, Loads: 3, MemAccesses: 1}
	s.Add(other)
	if s.Cycles != 201 || s.Instructions != 102 || s.Loads != 3 {
		t.Fatalf("Add produced %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String should render something")
	}
	if other.memoryAccessesPerLoad() <= 0 {
		t.Fatal("memoryAccessesPerLoad should be positive")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		sys := MustSystem(testConfig())
		c := sys.NewCore()
		for i := 0; i < 500; i++ {
			a := Addr((i * 37 % 101) * LineSize)
			if i%3 == 0 {
				c.Prefetch(a)
			} else {
				c.Load(a, 8)
			}
			c.Instr(i % 7)
		}
		return c.Cycle()
	}
	if run() != run() {
		t.Fatal("identical access sequences must produce identical cycle counts")
	}
}
