package memsim

import (
	"fmt"
	"testing"
)

// fuzzGeometries are the cache shapes FuzzCacheOps replays every input on:
// a power-of-two set count (mask indexing), a non-power-of-two one (the
// Lemire fast-mod path the Xeon L3's 12288 sets take), a 16-way cache (the
// L3's associativity) and an 8-way one (the L1's and L2's).
var fuzzGeometries = []struct{ sets, ways int }{
	{8, 4},
	{12, 2},
	{4, 16},
	{16, 8},
}

// FuzzCacheOps decodes its input into a sequence of Cache operations and
// checks every return value and counter against referenceCache, on each
// geometry in fuzzGeometries. Three bytes make one operation:
//
//	b0 % 7     the operation: Lookup, Insert, InsertSpan, Contains,
//	           Invalidate, Reset, touch run
//	b0/7 % 4   the line's high bits (line += that << 30), so large line
//	           numbers exercise the set-index arithmetic
//	b1         the line's low bits: a small domain, so sets fill, evict
//	           and hit
//	b2 % 6 + 1 the InsertSpan length
//	b2         the touch run's length, 1 to 3 × sets × ways + 1 lines
//	           (b2 × 3 × sets × ways / 255 + 1), so runs shorter and longer
//	           than the set count and than the whole cache both occur
//	b0/28 + 1  the number of lines per touch call: the run is issued as
//	           consecutive touches that extend one pending run
//
// A touch run leaves its lines pending (Core.Touch's path), so the counters
// are not read after it: the next operation, whatever it is, must apply the
// run itself, and the counters it leaves are compared field by field. At the
// end the accessors apply any run still pending, and the whole tag array
// must equal the reference's recency order.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 1, 0})
	f.Add([]byte{2, 0, 5, 0, 3, 0, 4, 2, 0, 0, 2, 0, 5, 0, 0})
	f.Add([]byte{8, 9, 0, 15, 9, 0, 7, 9, 0, 22, 9, 0, 7, 9, 0})
	// Resident lines, then a run over them longer than the cache, then a
	// Contains that must apply it.
	f.Add([]byte{1, 3, 0, 1, 40, 0, 6, 0, 255, 3, 3, 0})
	// A run shorter than the set count in single-line touches, then one
	// that does not continue it, then the accessors at the end.
	f.Add([]byte{6, 5, 0, 6, 6, 0, 62, 7, 30, 6, 200, 90})
	// A pending run dropped by Reset, then a run evicting a full set.
	f.Add([]byte{6, 0, 120, 5, 0, 0, 1, 1, 0, 1, 17, 0, 34, 1, 255, 4, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, g := range fuzzGeometries {
			if err := replayCacheOps(g.sets, g.ways, ops); err != nil {
				t.Fatalf("%d sets x %d ways: %v", g.sets, g.ways, err)
			}
		}
	})
}

// replayCacheOps runs the decoded operations on a Cache and a referenceCache
// of the given shape and reports the first divergence.
func replayCacheOps(sets, ways int, ops []byte) error {
	c := NewCache("fuzz", CacheConfig{SizeBytes: sets * ways * LineSize, Ways: ways, LatencyCycles: 1})
	ref := newReferenceCache(sets, ways)
	for i := 0; i+3 <= len(ops); i += 3 {
		line := uint64(ops[i]/7%4)<<30 | uint64(ops[i+1])
		var desc string
		switch ops[i] % 7 {
		case 0:
			desc = fmt.Sprintf("Lookup(%d)", line)
			if got, want := c.Lookup(line), ref.lookup(line); got != want {
				return fmt.Errorf("op %d %s = %v, want %v", i/3, desc, got, want)
			}
		case 1:
			desc = fmt.Sprintf("Insert(%d)", line)
			gotLine, gotOK := c.Insert(line)
			wantLine, wantOK := ref.insert(line)
			if gotLine != wantLine || gotOK != wantOK {
				return fmt.Errorf("op %d %s = (%d, %v), want (%d, %v)", i/3, desc, gotLine, gotOK, wantLine, wantOK)
			}
		case 2:
			n := int(ops[i+2]%6) + 1
			desc = fmt.Sprintf("InsertSpan(%d, %d)", line, n)
			c.InsertSpan(line, n)
			for k := 0; k < n; k++ {
				ref.insert(line + uint64(k))
			}
		case 3:
			desc = fmt.Sprintf("Contains(%d)", line)
			if got, want := c.Contains(line), ref.contains(line); got != want {
				return fmt.Errorf("op %d %s = %v, want %v", i/3, desc, got, want)
			}
		case 4:
			desc = fmt.Sprintf("invalidate(%d)", line)
			c.invalidate(line)
			ref.invalidate(line)
		case 5:
			desc = "Reset()"
			c.Reset()
			ref.reset()
		default:
			n := uint64(ops[i+2])*uint64(3*sets*ways)/255 + 1
			step := uint64(ops[i]/28) + 1
			for k := uint64(0); k < n; k += step {
				c.touch(line+k, min(step, n-k))
			}
			for k := uint64(0); k < n; k++ {
				ref.insert(line + k)
			}
			continue
		}
		if c.hits != ref.hits || c.misses != ref.misses || c.evictions != ref.evictions {
			return fmt.Errorf("after op %d %s: hits/misses/evictions = %d/%d/%d, want %d/%d/%d",
				i/3, desc, c.hits, c.misses, c.evictions, ref.hits, ref.misses, ref.evictions)
		}
	}
	if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Evictions() != ref.evictions {
		return fmt.Errorf("at the end: Hits/Misses/Evictions = %d/%d/%d, want %d/%d/%d",
			c.Hits(), c.Misses(), c.Evictions(), ref.hits, ref.misses, ref.evictions)
	}
	for s, entries := range ref.sets {
		got := c.tags[s*ways : (s+1)*ways]
		for w := range got {
			want := uint32(0)
			if w < len(entries) {
				want = uint32(entries[w]) + 1
			}
			if got[w] != want {
				return fmt.Errorf("set %d: tags %v, want recency order %v (tag = line+1)", s, got, entries)
			}
		}
	}
	return nil
}
