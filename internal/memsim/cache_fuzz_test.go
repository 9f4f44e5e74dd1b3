package memsim

import (
	"fmt"
	"testing"
)

// fuzzGeometries are the cache shapes FuzzCacheOps replays every input on:
// a power-of-two set count (mask indexing), a non-power-of-two one (the
// Lemire fast-mod path the Xeon L3's 12288 sets take) and a 16-way cache
// (the L3's associativity).
var fuzzGeometries = []struct{ sets, ways int }{
	{8, 4},
	{12, 2},
	{4, 16},
}

// FuzzCacheOps decodes its input into a sequence of Cache operations and
// checks every return value and counter against referenceCache, on each
// geometry in fuzzGeometries. Three bytes make one operation:
//
//	b0 % 6     the operation: Lookup, Insert, InsertSpan, Contains,
//	           Invalidate, Reset
//	b0/6 % 4   the line's high bits (line += that << 30), so large line
//	           numbers exercise the set-index arithmetic
//	b1         the line's low bits: a small domain, so sets fill, evict
//	           and hit
//	b2 % 6 + 1 the InsertSpan length
//
// At the end the whole tag array must equal the reference's recency order.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 1, 0})
	f.Add([]byte{2, 0, 5, 0, 3, 0, 4, 2, 0, 0, 2, 0, 5, 0, 0})
	f.Add([]byte{7, 9, 0, 13, 9, 0, 6, 9, 0, 19, 9, 0, 6, 9, 0})
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
		line := uint64(ops[i]/6%4)<<30 | uint64(ops[i+1])
		var desc string
		switch ops[i] % 6 {
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
			desc = fmt.Sprintf("Invalidate(%d)", line)
			c.Invalidate(line)
			ref.invalidate(line)
		default:
			desc = "Reset()"
			c.Reset()
			ref.reset()
		}
		if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Evictions() != ref.evictions {
			return fmt.Errorf("after op %d %s: hits/misses/evictions = %d/%d/%d, want %d/%d/%d",
				i/3, desc, c.Hits(), c.Misses(), c.Evictions(), ref.hits, ref.misses, ref.evictions)
		}
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
