package memsim

import "testing"

// poolSnapshot captures everything a run exposes: core counters plus the
// hit/miss/eviction state of every cache level.
type poolSnapshot struct {
	stats         Stats
	l1h, l1m, l1e uint64
	l2h, l2m, l2e uint64
	l3h, l3m, l3e uint64
	mshrOut       int
}

// exercise runs a deterministic mixed workload — strided and pseudo-random
// loads, stores, prefetches, compute and idle skips — that leaves plenty of
// state in every structure the reset path must clear.
func exercise(sys *System, c *Core, threads int) poolSnapshot {
	sys.SetActiveThreads(threads, c)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch i % 5 {
		case 0:
			c.Load(Addr(64+(x%(1<<26))), 8)
		case 1:
			c.Store(Addr(64+(x%(1<<22))), 16)
		case 2:
			c.Prefetch(Addr(64 + (x % (1 << 26))))
		case 3:
			c.Load(Addr(64+uint64(i)*64), 8) // sequential: trains the stream prefetcher
		default:
			c.Instr(3)
			if i%1000 == 999 {
				c.AdvanceTo(c.Cycle() + 500)
			}
		}
	}
	return poolSnapshot{
		stats: c.Stats(),
		l1h:   c.L1().Hits(), l1m: c.L1().Misses(), l1e: c.L1().Evictions(),
		l2h: c.L2().Hits(), l2m: c.L2().Misses(), l2e: c.L2().Evictions(),
		l3h: sys.L3().Hits(), l3m: sys.L3().Misses(), l3e: sys.L3().Evictions(),
		mshrOut: c.MSHROutstanding(),
	}
}

// TestAcquireSystemBitIdentical is the contract the serving layer's system
// recycling rests on: a recycled pair must reproduce a fresh pair's
// simulated results exactly, for every counter, even after the previous run
// left arbitrary cache, TLB, MSHR, stream-tracker and SMT state behind.
func TestAcquireSystemBitIdentical(t *testing.T) {
	cfg := XeonX5670()
	fresh := MustSystem(cfg)
	want := exercise(fresh, fresh.NewCore(), 1)

	p := AcquireSystem(cfg)
	exercise(p.Sys, p.Core, 4) // dirty it under a different SMT/fabric shape
	p.Release()

	for round := 0; round < 3; round++ {
		q := AcquireSystem(cfg)
		got := exercise(q.Sys, q.Core, 1)
		if got != want {
			t.Fatalf("round %d: recycled system diverged from fresh:\n got %+v\nwant %+v", round, got, want)
		}
		q.Release()
	}

	// An acquire/release cycle that never touches the caches (Reset's
	// skip-memset fast path) must also hand back a bit-identical pair.
	idle := AcquireSystem(cfg)
	idle.Core.Instr(100)
	idle.Core.AdvanceTo(5000)
	idle.Release()
	q := AcquireSystem(cfg)
	if got := exercise(q.Sys, q.Core, 1); got != want {
		t.Fatalf("recycled-after-idle system diverged from fresh:\n got %+v\nwant %+v", got, want)
	}
	q.Release()

	// A warm-only use — Touch fills every level without a single Lookup, as
	// table warming does — leaves caches whose counters are all zero; Reset
	// must still empty them.
	warm := AcquireSystem(cfg)
	warm.Core.Touch(64, 1<<20)
	warm.Release()
	q = AcquireSystem(cfg)
	if got := exercise(q.Sys, q.Core, 1); got != want {
		t.Fatalf("recycled-after-warm system diverged from fresh:\n got %+v\nwant %+v", got, want)
	}
	q.Release()
}

// TestAcquireSystemDistinctConfigs checks that pools are keyed by the full
// configuration value: different configs never share instances.
func TestAcquireSystemDistinctConfigs(t *testing.T) {
	a := AcquireSystem(XeonX5670())
	b := AcquireSystem(SPARCT4())
	if a.Sys == b.Sys || a.Core == b.Core {
		t.Fatal("different configurations shared a pooled instance")
	}
	if a.Sys.Config().Name != "Xeon x5670" || b.Sys.Config().Name != "SPARC T4" {
		t.Fatalf("pooled systems carry wrong configs: %q, %q", a.Sys.Config().Name, b.Sys.Config().Name)
	}
	a.Release()
	b.Release()
}

// TestCoreResetRestoresColdState verifies Reset against a freshly built core
// across the counters that PR 3's memos and the stream prefetcher maintain.
func TestCoreResetRestoresColdState(t *testing.T) {
	cfg := XeonX5670()
	sysA := MustSystem(cfg)
	a := sysA.NewCore()
	want := exercise(sysA, a, 1)

	sysB := MustSystem(cfg)
	b := sysB.NewCore()
	exercise(sysB, b, 6)
	sysB.Reset()
	sysB.fabric.SetActiveThreads(1)
	b.Reset()
	got := exercise(sysB, b, 1)
	if got != want {
		t.Fatalf("reset core diverged from fresh:\n got %+v\nwant %+v", got, want)
	}
}
