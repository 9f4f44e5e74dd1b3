package memsim

import (
	"math/rand"
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
	c.Invalidate(42)
	if c.Contains(42) {
		t.Fatal("line still present after Invalidate")
	}
	// Invalidating an absent line must be a no-op.
	c.Invalidate(43)
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
