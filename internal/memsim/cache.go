package memsim

import "math/bits"

// Cache is a set-associative cache with true-LRU replacement. It stores only
// cache-line numbers (tags); data always lives in the arena. A Cache is not
// safe for concurrent use; the simulator is single-threaded by design.
//
// This type is the innermost loop of the whole simulator — every simulated
// load, store, prefetch and stream-prefetcher fill ends in a handful of
// Lookup/Insert calls — so the representation is chosen for the host's
// memory system as much as for clarity:
//
//   - Each set is ways contiguous uint32 tags (lineNumber+1, 0 = empty)
//     kept in recency order: most recently used first, empty ways always at
//     the tail. A hit moves its tag to the front, an insert shifts the set
//     down one way (the tail, if valid, is the LRU victim), and a scan stops
//     at the first empty way. Recency order is the whole LRU state, so there
//     are no use stamps to store, compare or renormalize, and re-touched
//     lines — the common case — are found at way 0. A 16-way set is one
//     64-byte host cache line.
//   - The set-index computation avoids the hardware divide: power-of-two
//     set counts use a mask and others (the Xeon L3 has 12288 sets) a
//     Lemire fast-mod double multiply. Both produce exactly line % sets.
//   - Warm-up touches (Core.Touch) are not inserted one by one: the cache
//     keeps one pending run of consecutive touched lines, and every other
//     entry point applies it first, so the run is invisible to callers.
//     The run lives in the Cache, not the Core, so another core's access to
//     a shared L3 applies it too. A run shorter than the set count is an
//     InsertSpan; a longer one is applied set by set in O(sets × ways)
//     instead of O(lines × ways), which turns an LLC-sized table warm-up
//     from hundreds of thousands of shifting inserts into one pass over the
//     tag array.
//
// 32-bit tags bound the simulated address space to 2^32-2 cache lines
// (256 GB); exceeding it panics loudly rather than aliasing.
type Cache struct {
	name    string
	latency uint64
	ways    int
	sets    uint64
	// mask is sets-1 when sets is a power of two (pow2 true).
	pow2 bool
	mask uint64
	// fastM is ceil(2^64 / sets), the fast-mod magic; valid when sets > 1
	// fits in 32 bits (lines always do, per the address-space bound).
	fastM uint64

	// tags[set*ways : (set+1)*ways] is one set, most recently used first.
	tags []uint32
	// dirty records that a tag was ever written since the last Reset, so
	// resetting a cache that was never filled skips the memset.
	dirty bool
	// runFirst and runN are the pending run of touched lines (touch): runN
	// lines from runFirst, all within the address-space bound, still to be
	// inserted in ascending order. runN is 0 when nothing is pending.
	runFirst uint64
	runN     uint64

	hits      uint64
	misses    uint64
	evictions uint64
}

// tagOf converts a line number to its tag, enforcing the simulator's
// address-space bound.
func tagOf(line uint64) uint32 {
	if line >= 1<<32-1 {
		panic("memsim: cache line number exceeds the simulator's 256 GB address-space bound")
	}
	return uint32(line) + 1
}

// NewCache builds a cache from its configuration. The configuration must have
// been validated.
func NewCache(name string, cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		name:    name,
		latency: cfg.LatencyCycles,
		ways:    cfg.Ways,
		sets:    uint64(sets),
		tags:    make([]uint32, sets*cfg.Ways),
	}
	if c.sets&(c.sets-1) == 0 {
		c.pow2 = true
		c.mask = c.sets - 1
	} else if c.sets < 1<<32 {
		c.fastM = ^uint64(0)/c.sets + 1
	}
	return c
}

// Name returns the label given at construction time.
func (c *Cache) Name() string { return c.name }

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// setBase returns the index of the first way of the set holding line.
func (c *Cache) setBase(line uint64) int {
	if c.pow2 {
		return int(line&c.mask) * c.ways
	}
	if c.fastM != 0 {
		// Lemire fast-mod: line % sets for 32-bit operands (lines are
		// 32-bit by the address-space bound).
		mod, _ := bits.Mul64(c.fastM*line, c.sets)
		return int(mod) * c.ways
	}
	return int(line%c.sets) * c.ways
}

// set returns the ways of the set holding line, most recently used first.
func (c *Cache) set(line uint64) []uint32 {
	base := c.setBase(line)
	return c.tags[base : base+c.ways : base+c.ways]
}

// promote moves the tag at way w to the front of set, shifting the more
// recently used ways down by one.
func promote(set []uint32, w int, tag uint32) {
	copy(set[1:w+1], set[:w])
	set[0] = tag
}

// touch records n consecutive lines from first as inserted, in ascending
// order, without inserting them yet: a touch that continues the pending run
// extends it, any other applies the pending run and starts a new one. The
// caller has checked the lines against the address-space bound. It calls
// applyRun, not flush, to stay under the inliner's budget, so Core.Touch
// costs no call per level.
func (c *Cache) touch(first, n uint64) {
	if first != c.runFirst+c.runN {
		c.applyRun()
		c.runFirst = first
	}
	c.runN += n
}

// flush applies the pending run, if any. Every entry point but touch and
// Reset calls it first, so callers never see the run.
func (c *Cache) flush() {
	if c.runN != 0 {
		c.applyRun()
	}
}

// applyRun clears the pending run and then inserts it, leaving exactly the
// state and eviction count that one Insert per line in ascending order
// would. A run shorter than the set count puts at most one line in each set,
// so it is an InsertSpan. In a longer one, set i (counting from the first
// line's set) receives the k lines first+i, first+i+sets, ... in that order;
// when none of them is resident, those k misses leave the last min(k, ways)
// of them in the front ways, most recent first, ahead of the set's old lines
// that survive, and evict max(0, valid+k-ways) lines. A set that already
// holds a line of the run falls back to the k ordinary inserts. An empty
// run is a no-op.
func (c *Cache) applyRun() {
	first, n := c.runFirst, c.runN
	c.runN = 0
	if n < c.sets {
		if n != 0 {
			c.InsertSpan(first, int(n))
		}
		return
	}
	c.dirty = true
	ways := uint64(c.ways)
	q, r := n/c.sets, n%c.sets
	base := c.setBase(first)
	for i := uint64(0); i < c.sets; i++ {
		set := c.tags[base : base+c.ways : base+c.ways]
		if base += c.ways; base == len(c.tags) {
			base = 0
		}
		k := q
		if i < r {
			k++
		}
		line := first + i
		valid := 0
		for valid < len(set) && set[valid] != 0 && uint64(set[valid])-1-first >= n {
			valid++
		}
		if valid < len(set) && set[valid] != 0 {
			// The set holds a line of the run: insert one by one.
			for ; k > 0; k-- {
				c.insertInto(set, uint32(line)+1)
				line += c.sets
			}
			continue
		}
		if uint64(valid)+k > ways {
			c.evictions += uint64(valid) + k - ways
		}
		m := int(min(k, ways))
		copy(set[m:], set[:len(set)-m])
		line += (k - 1) * c.sets
		for w := range set[:m] {
			set[w] = uint32(line) + 1
			line -= c.sets
		}
	}
}

// Lookup reports whether line is present and, if so, marks it most recently
// used. Statistics are updated.
func (c *Cache) Lookup(line uint64) bool {
	c.flush()
	tag := tagOf(line)
	set := c.set(line)
	for w, t := range set {
		if t == tag {
			promote(set, w, tag)
			c.hits++
			return true
		}
		if t == 0 {
			break
		}
	}
	c.misses++
	return false
}

// Contains reports whether line is present without updating recency or
// statistics. It is used by prefetch filtering.
func (c *Cache) Contains(line uint64) bool {
	c.flush()
	tag := tagOf(line)
	for _, t := range c.set(line) {
		if t == tag {
			return true
		}
		if t == 0 {
			break
		}
	}
	return false
}

// Insert places line in the cache as most recently used, evicting the least
// recently used way of its set if the set is full. It returns the evicted
// line and true if an eviction of a valid line occurred. Inserting a line
// that is already present only refreshes its recency.
func (c *Cache) Insert(line uint64) (evicted uint64, ok bool) {
	c.flush()
	return c.insertInto(c.set(line), tagOf(line))
}

// insertInto is Insert with the set already resolved. One scan stops at the
// tag itself (a refresh), the first empty way (a fill) or the tail (an
// eviction when the tail holds another line); in all three cases the ways
// above the stop shift down one and tag goes to the front.
func (c *Cache) insertInto(set []uint32, tag uint32) (evicted uint64, ok bool) {
	w := 0
	for w < len(set)-1 && set[w] != tag && set[w] != 0 {
		w++
	}
	old := set[w]
	promote(set, w, tag)
	c.dirty = true
	if old == tag || old == 0 {
		return 0, false
	}
	c.evictions++
	return uint64(old) - 1, true
}

// InsertSpan inserts n consecutive lines starting at first, exactly as n
// successive Insert calls would (same per-cache operation order, so the
// resulting state and statistics are identical). The stream prefetcher
// re-installs its fill window on every stream hit; batching lets the span
// share the tag arithmetic and step the set index instead of recomputing it.
func (c *Cache) InsertSpan(first uint64, n int) {
	c.flush()
	tag := tagOf(first+uint64(n-1)) - uint32(n-1) // bound-check once
	base := c.setBase(first)
	for i := 0; i < n; i++ {
		c.insertInto(c.tags[base:base+c.ways:base+c.ways], tag)
		tag++
		if base += c.ways; base == len(c.tags) {
			base = 0
		}
	}
}

// invalidate removes line from the cache if present, closing the gap so the
// empty way moves to the tail.
func (c *Cache) invalidate(line uint64) {
	c.flush()
	tag := tagOf(line)
	set := c.set(line)
	for w, t := range set {
		if t == tag {
			copy(set[w:], set[w+1:])
			set[len(set)-1] = 0
			return
		}
		if t == 0 {
			return
		}
	}
}

// Reset invalidates all lines, drops the pending run and clears statistics.
// A cache that was never filled since the last Reset is still all-empty, so
// the memset is skipped — which is what makes recycling a socket model cheap
// for compute-only runs that never reach this level.
func (c *Cache) Reset() {
	c.runN = 0
	if c.dirty {
		clear(c.tags)
		c.dirty = false
	}
	c.hits = 0
	c.misses = 0
	c.evictions = 0
}

// Hits returns the number of Lookup calls that found their line.
func (c *Cache) Hits() uint64 {
	c.flush()
	return c.hits
}

// Misses returns the number of Lookup calls that did not find their line.
func (c *Cache) Misses() uint64 {
	c.flush()
	return c.misses
}

// Evictions returns the number of valid lines displaced by Insert.
func (c *Cache) Evictions() uint64 {
	c.flush()
	return c.evictions
}
