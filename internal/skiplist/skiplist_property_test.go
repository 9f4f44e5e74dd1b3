package skiplist

import (
	"sort"
	"testing"
	"testing/quick"

	"amac/internal/arena"
	"amac/internal/xrand"
)

// TestRandomOperationSequenceMatchesMap drives the list with a random
// sequence of inserts and searches and checks every answer against a plain
// map — the kind of end-to-end invariant that catches pointer-splicing bugs
// that targeted tests miss.
func TestRandomOperationSequenceMatchesMap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		l := New(arena.New(), 12)
		ref := make(map[uint64]uint64)
		for i := 0; i < 600; i++ {
			key := rng.Uint64n(200) + 1
			switch rng.Intn(3) {
			case 0: // insert
				payload := rng.Uint64()
				inserted := l.InsertRaw(key, payload, rng)
				_, existed := ref[key]
				if inserted == existed {
					return false // must succeed exactly when the key was absent
				}
				if inserted {
					ref[key] = payload
				}
			default: // search
				got, ok := l.SearchRaw(key)
				want, exists := ref[key]
				if ok != exists || (ok && got != want) {
					return false
				}
			}
		}
		if l.Len() != len(ref) {
			return false
		}
		// Level-0 order must equal the sorted reference keys.
		keys := l.Keys()
		wantKeys := make([]uint64, 0, len(ref))
		for k := range ref {
			wantKeys = append(wantKeys, k)
		}
		sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
		if len(keys) != len(wantKeys) {
			return false
		}
		for i := range keys {
			if keys[i] != wantKeys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTowerHeightInvariant: a node linked at level L must have a tower of at
// least L+1 levels, for every level of the list, after a random build.
func TestTowerHeightInvariant(t *testing.T) {
	rng := xrand.New(77)
	l := New(arena.New(), 16)
	for i := 0; i < 2000; i++ {
		l.InsertRaw(rng.Uint64n(10000)+1, rng.Uint64(), rng)
	}
	for lvl := 0; lvl < l.Level(); lvl++ {
		for n := l.Next(l.Head(), lvl); n != 0; n = l.Next(n, lvl) {
			if l.nodeLevel(n) < lvl+1 {
				t.Fatalf("node with tower height %d reached from level %d", l.nodeLevel(n), lvl)
			}
		}
	}
}
