package memsim

import "testing"

// TestStreamPrefetcherMakesSequentialScansCheap: a long sequential scan must
// cost far less per line than random accesses, because the hardware stream
// prefetcher runs ahead of it.
func TestStreamPrefetcherMakesSequentialScansCheap(t *testing.T) {
	cfg := testConfig()
	sys := MustSystem(cfg)
	c := sys.NewCore()
	c.oooHide = 0

	const lines = 2000
	for i := 0; i < lines; i++ {
		c.Load(Addr(64+i*LineSize), 8)
	}
	seq := c.Cycle()
	if c.Stats().StreamFills == 0 {
		t.Fatal("sequential scan should have triggered the stream prefetcher")
	}

	c2 := sys.NewCore()
	c2.oooHide = 0
	for i := 0; i < lines; i++ {
		// Large, non-sequential stride: every access is a fresh miss.
		c2.Load(Addr(64+uint64(i)*97*LineSize), 8)
	}
	random := c2.Cycle()

	if seq*3 > random {
		t.Fatalf("sequential scan (%d cycles) should be far cheaper than random accesses (%d cycles)", seq, random)
	}
}

// TestStreamPrefetcherIgnoresPointerChases: strided or scattered accesses
// must not be treated as streams, otherwise the software techniques would
// have nothing left to do.
func TestStreamPrefetcherIgnoresPointerChases(t *testing.T) {
	sys := MustSystem(testConfig())
	c := sys.NewCore()
	for i := 0; i < 100; i++ {
		c.Load(Addr(64+uint64(i)*17*LineSize), 8)
	}
	if c.Stats().StreamFills != 0 {
		t.Fatalf("scattered accesses triggered %d stream fills", c.Stats().StreamFills)
	}
}

// TestStreamPrefetcherCanBeDisabled verifies the configuration knob used by
// ablations.
func TestStreamPrefetcherCanBeDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.DisableStreamPrefetcher = true
	sys := MustSystem(cfg)
	c := sys.NewCore()
	for i := 0; i < 500; i++ {
		c.Load(Addr(64+i*LineSize), 8)
	}
	if c.Stats().StreamFills != 0 {
		t.Fatal("disabled stream prefetcher still filled lines")
	}
}

// TestStreamPrefetcherTracksMultipleStreams: interleaved sequential streams
// (e.g. an input scan plus an output scan) must both be recognised.
func TestStreamPrefetcherTracksMultipleStreams(t *testing.T) {
	sys := MustSystem(testConfig())
	c := sys.NewCore()
	c.oooHide = 0
	baseA := Addr(1 << 20)
	baseB := Addr(1 << 24)
	for i := 0; i < 500; i++ {
		c.Load(baseA+Addr(i*LineSize), 8)
		c.Load(baseB+Addr(i*LineSize), 8)
	}
	s := c.Stats()
	// After warm-up, almost no access should have to go to memory: both
	// streams are recognised and their lines arrive ahead of the demand.
	if s.MemAccesses > s.Loads/5 {
		t.Fatalf("%d of %d loads went to memory despite two recognisable streams", s.MemAccesses, s.Loads)
	}
}

// TestSustainedIPCDefault: when SustainedIPC is not set, compute throughput
// defaults to a fraction of the issue width.
func TestSustainedIPCDefault(t *testing.T) {
	cfg := testConfig()
	cfg.IssueWidth = 5
	cfg.SustainedIPC = 0
	sys := MustSystem(cfg)
	c := sys.NewCore()
	c.Instr(300)
	// Default sustained IPC is 3 (0.6 * 5), so 300 instructions take ~100 cycles.
	if c.Cycle() < 95 || c.Cycle() > 105 {
		t.Fatalf("300 instructions at default sustained IPC took %d cycles, want about 100", c.Cycle())
	}
}

// TestOffchipDemandDrivesFabricContention: a thread that keeps many off-chip
// misses in flight must observe inflated latency once several such threads
// share the socket, while a low-MLP thread must not.
func TestOffchipDemandDrivesFabricContention(t *testing.T) {
	cfg := testConfig()
	cfg.L1MSHRs = 8
	cfg.LLCQueueEntries = 16
	run := func(threads int, prefetches int) uint64 {
		sys := MustSystem(cfg)
		c := sys.NewCore()
		c.oooHide = 0
		sys.SetActiveThreads(threads, c)
		for i := 0; i < 3000; i++ {
			if prefetches > 0 {
				for p := 0; p < prefetches; p++ {
					c.Prefetch(Addr(64 + uint64(i*16+p)*101*LineSize))
				}
			}
			c.Load(Addr(64+uint64(i*16+15)*103*LineSize), 8)
		}
		return c.Cycle()
	}
	highMLPAlone := run(1, 6)
	highMLPShared := run(6, 6)
	if float64(highMLPShared) < float64(highMLPAlone)*1.2 {
		t.Fatalf("six high-MLP threads sharing a 16-entry queue should slow each other down: alone %d, shared %d", highMLPAlone, highMLPShared)
	}
	lowMLPAlone := run(1, 0)
	lowMLPShared := run(6, 0)
	if float64(lowMLPShared) > float64(lowMLPAlone)*1.1 {
		t.Fatalf("low-MLP threads should not contend: alone %d, shared %d", lowMLPAlone, lowMLPShared)
	}
}
