package memsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func testCacheConfig(sizeBytes, ways int, lat uint64) CacheConfig {
	return CacheConfig{SizeBytes: sizeBytes, Ways: ways, LatencyCycles: lat}
}

func TestCacheConfigSets(t *testing.T) {
	cfg := testCacheConfig(32<<10, 8, 4)
	if got, want := cfg.Sets(), 64; got != want {
		t.Fatalf("Sets() = %d, want %d", got, want)
	}
	if err := cfg.validate("L1"); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestCacheConfigValidateRejectsDegenerateConfigs(t *testing.T) {
	cfg := testCacheConfig(3*LineSize*2, 2, 1) // 3 sets: allowed (the Xeon L3 has 12288)
	if err := cfg.validate("odd"); err != nil {
		t.Fatalf("non-power-of-two set count should be accepted: %v", err)
	}
	if err := (CacheConfig{}).validate("zero"); err == nil {
		t.Fatal("expected error for zero-size cache")
	}
	if err := testCacheConfig(LineSize, 4, 1).validate("nosets"); err == nil {
		t.Fatal("expected error when the configuration yields no sets")
	}
}

func TestCacheHitAfterInsert(t *testing.T) {
	c := NewCache("t", testCacheConfig(4<<10, 4, 4))
	const line = 12345
	if c.Lookup(line) {
		t.Fatal("line should miss in an empty cache")
	}
	c.Insert(line)
	if !c.Lookup(line) {
		t.Fatal("line should hit after insert")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestCacheContainsDoesNotTouchStats(t *testing.T) {
	c := NewCache("t", testCacheConfig(4<<10, 4, 4))
	c.Insert(7)
	h, m := c.Hits(), c.Misses()
	if !c.Contains(7) || c.Contains(8) {
		t.Fatal("Contains gave wrong answers")
	}
	if c.Hits() != h || c.Misses() != m {
		t.Fatal("Contains must not update statistics")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-mapped-by-set: 2 ways, 2 sets. Lines mapping to set 0 are even.
	c := NewCache("t", testCacheConfig(2*2*LineSize, 2, 1))
	c.Insert(0) // set 0
	c.Insert(2) // set 0
	// Touch line 0 so line 2 becomes LRU.
	if !c.Lookup(0) {
		t.Fatal("line 0 should be resident")
	}
	evicted, ok := c.Insert(4) // set 0, must evict line 2
	if !ok || evicted != 2 {
		t.Fatalf("evicted %d (ok=%v), want line 2", evicted, ok)
	}
	if !c.Contains(0) || !c.Contains(4) || c.Contains(2) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestCacheInsertExistingLineDoesNotEvict(t *testing.T) {
	c := NewCache("t", testCacheConfig(2*2*LineSize, 2, 1))
	c.Insert(0)
	c.Insert(2)
	if _, ok := c.Insert(0); ok {
		t.Fatal("re-inserting a resident line must not evict")
	}
	if c.Evictions() != 0 {
		t.Fatalf("evictions = %d, want 0", c.Evictions())
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache("t", testCacheConfig(4<<10, 4, 4))
	c.Insert(42)
	c.invalidate(42)
	if c.Contains(42) {
		t.Fatal("line still present after invalidate")
	}
	// Invalidating an absent line must be a no-op.
	c.invalidate(43)
}

func TestCacheReset(t *testing.T) {
	c := NewCache("t", testCacheConfig(4<<10, 4, 4))
	c.Insert(1)
	c.Lookup(1)
	c.Lookup(2)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 || c.Contains(1) {
		t.Fatal("Reset did not clear state")
	}
}

func TestCacheCapacityNeverExceeded(t *testing.T) {
	const ways, sets = 4, 8
	c := NewCache("t", testCacheConfig(ways*sets*LineSize, ways, 1))
	rng := rand.New(rand.NewSource(1))
	resident := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		line := uint64(rng.Intn(4096))
		evicted, ok := c.Insert(line)
		resident[line] = true
		if ok {
			delete(resident, evicted)
		}
		if len(resident) > ways*sets {
			t.Fatalf("resident set grew to %d, capacity is %d", len(resident), ways*sets)
		}
	}
	// Everything we believe resident must be reported resident.
	for line := range resident {
		if !c.Contains(line) {
			t.Fatalf("line %d should be resident", line)
		}
	}
}

func TestCacheSetIsolationProperty(t *testing.T) {
	// Lines in different sets never evict each other.
	const ways, sets = 2, 16
	f := func(seed int64) bool {
		c := NewCache("t", testCacheConfig(ways*sets*LineSize, ways, 1))
		rng := rand.New(rand.NewSource(seed))
		target := uint64(3) // set 3
		c.Insert(target)
		for i := 0; i < 200; i++ {
			// Insert lines that map to other sets only.
			line := uint64(rng.Intn(1<<20))*sets + 5 // set 5
			c.Insert(line)
		}
		return c.Contains(target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLineHelper(t *testing.T) {
	if Line(0) != 0 || Line(63) != 0 || Line(64) != 1 || Line(128) != 2 {
		t.Fatal("Line() boundaries wrong")
	}
}

// TestCacheResetAfterInsertOnly covers caches that only ever saw Insert — no
// Lookup, so no hit or miss was counted — which is what Core.Touch and
// table warming leave behind: Reset must still empty them.
func TestCacheResetAfterInsertOnly(t *testing.T) {
	cfg := XeonX5670()
	sys := MustSystem(cfg)
	c := sys.NewCore()
	const first, n = 64, 1 << 12
	c.Touch(first*LineSize, n*LineSize)
	if !c.L1().Contains(first+n-1) || !sys.L3().Contains(first) {
		t.Fatal("Touch did not install the range")
	}
	c.Reset()
	sys.Reset()
	for _, cache := range []*Cache{c.L1(), c.L2(), sys.L3()} {
		for line := uint64(first); line < first+n; line++ {
			if cache.Contains(line) {
				t.Fatalf("%s still holds line %d after Reset", cache.Name(), line)
			}
		}
		if cache.Hits() != 0 || cache.Misses() != 0 || cache.Evictions() != 0 {
			t.Fatalf("%s statistics survived Reset", cache.Name())
		}
	}
}

// pendingCaches returns the three levels a Touch on c records its run in.
func pendingCaches(sys *System, c *Core) []*Cache { return []*Cache{c.L1(), c.L2(), sys.L3()} }

// TestTouchPanicsPastTheLineBound checks that the address-space bound is
// enforced when Touch is called, not later when some access applies the
// pending run.
func TestTouchPanicsPastTheLineBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    Addr
		size int
	}{
		{"the first line past the bound", Addr(1<<32-1) * LineSize, 1},
		{"a span ending past the bound", Addr(1<<32-2) * LineSize, 2 * LineSize},
		{"a span wrapping past 2^64", ^Addr(0) - LineSize + 1, 2 * LineSize},
	} {
		_, c := newTestCore(t)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Touch did not panic", tc.name)
				}
			}()
			c.Touch(tc.a, tc.size)
		}()
	}
	// The last line below the bound is valid, and so is applying it.
	sys, c := newTestCore(t)
	c.Touch(Addr(1<<32-2)*LineSize, LineSize)
	if !c.L1().Contains(1<<32-2) || !sys.L3().Contains(1<<32-2) {
		t.Fatal("the last valid line was not installed")
	}
}

// TestResetDropsPendingRun checks that FlushPrivate, Core.Reset and
// System.Reset drop a pending run instead of applying it: the sets stay
// empty and every counter stays zero.
func TestResetDropsPendingRun(t *testing.T) {
	sys := MustSystem(XeonX5670())
	c := sys.NewCore()
	const first, n = 1 << 10, 1 << 18 // longer than every level
	empty := func(caches ...*Cache) {
		t.Helper()
		for _, cache := range caches {
			if cache.runN != 0 {
				t.Fatalf("%s: run of %d lines still pending", cache.Name(), cache.runN)
			}
			for i, tag := range cache.tags {
				if tag != 0 {
					t.Fatalf("%s: way %d holds line %d", cache.Name(), i, tag-1)
				}
			}
			if cache.Hits() != 0 || cache.Misses() != 0 || cache.Evictions() != 0 {
				t.Fatalf("%s: counters %d/%d/%d, want zero", cache.Name(), cache.Hits(), cache.Misses(), cache.Evictions())
			}
		}
	}
	c.Touch(first*LineSize, n*LineSize)
	c.FlushPrivate()
	empty(c.L1(), c.L2())
	if sys.L3().runN != n {
		t.Fatalf("FlushPrivate touched the shared L3's pending run (%d lines, want %d)", sys.L3().runN, n)
	}
	c.Touch(first*LineSize, n*LineSize)
	c.Reset()
	sys.Reset()
	empty(pendingCaches(sys, c)...)
}

// TestAccessorsApplyPendingRun checks that the counter accessors apply a
// pending run before they answer: right after a Touch, Evictions counts the
// run's evictions and Hits leaves the tags the run's inserts would.
func TestAccessorsApplyPendingRun(t *testing.T) {
	cfg := XeonX5670()
	sys := MustSystem(cfg)
	c := sys.NewCore()
	const first, n = 3, 3 * 4096 // three times the L1, a multiple of its sets
	c.Touch(first*LineSize, n*LineSize)
	l1Lines := cfg.L1D.SizeBytes / LineSize
	if got, want := c.L1().Evictions(), uint64(n-l1Lines); got != want {
		t.Fatalf("L1 evictions right after Touch = %d, want %d", got, want)
	}
	if sys.L3().Hits() != 0 {
		t.Fatal("Touch counted an L3 hit")
	}
	for _, tc := range []struct {
		cache *Cache
		cfg   CacheConfig
	}{{c.L1(), cfg.L1D}, {sys.L3(), cfg.L3}} {
		want := NewCache("want", tc.cfg)
		for line := uint64(first); line < first+n; line++ {
			want.Insert(line)
		}
		if !slices.Equal(tc.cache.tags, want.tags) {
			t.Fatalf("%s: tags after the accessor differ from per-line inserts", tc.cache.Name())
		}
	}
}

// TestTouchedL3LinesVisibleToOtherCores checks that the shared L3's pending
// run lives in the L3, so a second core on the same System hits on lines
// the first core touched.
func TestTouchedL3LinesVisibleToOtherCores(t *testing.T) {
	sys := MustSystem(XeonX5670())
	a, b := sys.NewCore(), sys.NewCore()
	a.Touch(1<<20, 1<<20)
	b.Load(1<<20+100*LineSize, 8)
	if s := b.Stats(); s.L1Hits != 0 || s.L2Hits != 0 || s.L3Hits != 1 || s.MemAccesses != 0 {
		t.Fatalf("second core: L1/L2/L3 hits %d/%d/%d, memory accesses %d; want an L3 hit",
			s.L1Hits, s.L2Hits, s.L3Hits, s.MemAccesses)
	}
}

// TestTouchMatchesPerLineFills checks Touch against the fills it stands for
// on the Xeon's geometries (8-way power-of-two L1 and L2, a 16-way L3 of
// 12288 sets): one Touch of an LLC-sized range and the same range touched
// line by line must both leave every level's tags and counters exactly as
// one fill per line does, also when earlier accesses left some of the
// range's lines resident (the per-set fallback) and when the range starts
// mid-set.
func TestTouchMatchesPerLineFills(t *testing.T) {
	cfg := XeonX5670()
	const first = 5000
	n := uint64(cfg.L3.SizeBytes/LineSize) + 777
	prior := func(c *Core) {
		state := uint64(11)
		for i := 0; i < 20000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			c.Load(Addr((state>>33)%(1<<19)*LineSize), 8)
		}
	}
	var caches [3][]*Cache
	for i, warm := range []func(c *Core){
		func(c *Core) {
			for line := uint64(first); line < first+n; line++ {
				c.fill(line)
			}
		},
		func(c *Core) { c.Touch(first*LineSize, int(n*LineSize)) },
		func(c *Core) {
			for line := uint64(first); line < first+n; line++ {
				c.Touch(Addr(line*LineSize), LineSize)
			}
		},
	} {
		sys := MustSystem(cfg)
		c := sys.NewCore()
		prior(c)
		warm(c)
		caches[i] = pendingCaches(sys, c)
	}
	for _, got := range caches[1:] {
		for l, want := range caches[0] {
			if got[l].Evictions() != want.Evictions() || got[l].Hits() != want.Hits() || got[l].Misses() != want.Misses() {
				t.Fatalf("%s: hits/misses/evictions %d/%d/%d, want %d/%d/%d", want.Name(),
					got[l].Hits(), got[l].Misses(), got[l].Evictions(), want.Hits(), want.Misses(), want.Evictions())
			}
			if !slices.Equal(got[l].tags, want.tags) {
				t.Fatalf("%s: tags differ from one fill per line", want.Name())
			}
		}
	}
}
