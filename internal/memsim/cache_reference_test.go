package memsim

import (
	"testing"
	"testing/quick"
)

// referenceCache is an obviously-correct model of a set-associative LRU
// cache: per set, a slice ordered from most to least recently used. It keeps
// the same statistics as Cache: Lookup hits and misses, and evictions of
// valid lines by Insert.
type referenceCache struct {
	sets [][]uint64
	ways int

	hits, misses, evictions uint64
}

func newReferenceCache(sets, ways int) *referenceCache {
	return &referenceCache{sets: make([][]uint64, sets), ways: ways}
}

// find returns the set index of line and its position in that set, -1 if
// absent.
func (r *referenceCache) find(line uint64) (set, pos int) {
	set = int(line % uint64(len(r.sets)))
	for i, l := range r.sets[set] {
		if l == line {
			return set, i
		}
	}
	return set, -1
}

// lookup is Cache.Lookup: a hit moves the line to the front.
func (r *referenceCache) lookup(line uint64) bool {
	set, i := r.find(line)
	if i < 0 {
		r.misses++
		return false
	}
	entries := r.sets[set]
	copy(entries[1:i+1], entries[:i])
	entries[0] = line
	r.hits++
	return true
}

func (r *referenceCache) contains(line uint64) bool {
	_, i := r.find(line)
	return i >= 0
}

// insert is Cache.Insert: the line goes to the front, and a full set evicts
// its last (least recently used) entry.
func (r *referenceCache) insert(line uint64) (evicted uint64, ok bool) {
	set, i := r.find(line)
	entries := r.sets[set]
	if i >= 0 {
		copy(entries[1:i+1], entries[:i])
		entries[0] = line
		return 0, false
	}
	if len(entries) == r.ways {
		evicted, ok = entries[len(entries)-1], true
		entries = entries[:len(entries)-1]
		r.evictions++
	}
	r.sets[set] = append([]uint64{line}, entries...)
	return evicted, ok
}

func (r *referenceCache) invalidate(line uint64) {
	if set, i := r.find(line); i >= 0 {
		r.sets[set] = append(r.sets[set][:i], r.sets[set][i+1:]...)
	}
}

func (r *referenceCache) reset() {
	clear(r.sets)
	r.hits, r.misses, r.evictions = 0, 0, 0
}

// access is a demand access the way the Core drives the cache: Lookup, then
// Insert on a miss.
func (r *referenceCache) access(line uint64) bool {
	if r.lookup(line) {
		return true
	}
	r.insert(line)
	return false
}

// TestCacheMatchesReferenceModel replays random access traces on the real
// cache (Lookup + Insert-on-miss, the way the Core drives it) and on the
// reference model, and requires identical hit/miss decisions throughout.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const ways, sets = 4, 16
	f := func(seed uint64) bool {
		c := NewCache("t", CacheConfig{SizeBytes: ways * sets * LineSize, Ways: ways, LatencyCycles: 1})
		ref := newReferenceCache(sets, ways)
		state := seed
		next := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state >> 33
		}
		for i := 0; i < 5000; i++ {
			line := next() % 256
			gotHit := c.Lookup(line)
			if !gotHit {
				c.Insert(line)
			}
			wantHit := ref.access(line)
			if gotHit != wantHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCoreHitRatesImproveWithCacheSize is a sanity property of the whole
// hierarchy: for the same random trace, a machine with larger caches must
// not see more memory accesses than one with smaller caches.
func TestCoreHitRatesImproveWithCacheSize(t *testing.T) {
	trace := make([]Addr, 20000)
	state := uint64(9)
	for i := range trace {
		state = state*6364136223846793005 + 1
		trace[i] = Addr(64 + (state>>33)%(1<<14)*LineSize)
	}
	run := func(l3Lines int) uint64 {
		cfg := testConfig()
		cfg.L3 = CacheConfig{SizeBytes: l3Lines * LineSize, Ways: 8, LatencyCycles: 30}
		sys := MustSystem(cfg)
		c := sys.NewCore()
		for _, a := range trace {
			c.Load(a, 8)
		}
		return c.Stats().MemAccesses
	}
	small := run(1 << 10)
	large := run(1 << 13)
	if large > small {
		t.Fatalf("larger LLC saw more memory accesses (%d) than smaller LLC (%d)", large, small)
	}
}
