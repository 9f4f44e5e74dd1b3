package skiplist

import (
	"sort"
	"testing"
	"testing/quick"

	"amac/internal/arena"
	"amac/internal/relation"
	"amac/internal/xrand"
)

func TestEmptyList(t *testing.T) {
	l := New(arena.New(), 8)
	if l.Len() != 0 || l.Level() != 1 || l.MaxLevel() != 8 {
		t.Fatal("empty list invariants broken")
	}
	if _, ok := l.SearchRaw(5); ok {
		t.Fatal("search in empty list should fail")
	}
	if got := l.Keys(); len(got) != 0 {
		t.Fatalf("Keys = %v", got)
	}
}

func TestInsertSearchAndOrder(t *testing.T) {
	l := New(arena.New(), 12)
	rng := xrand.New(1)
	keys := []uint64{30, 10, 50, 20, 40}
	for i, k := range keys {
		if !l.InsertRaw(k, uint64(i)+100, rng) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if l.Len() != len(keys) {
		t.Fatalf("Len = %d", l.Len())
	}
	for i, k := range keys {
		p, ok := l.SearchRaw(k)
		if !ok || p != uint64(i)+100 {
			t.Fatalf("search(%d) = %d,%v", k, p, ok)
		}
	}
	if _, ok := l.SearchRaw(35); ok {
		t.Fatal("absent key reported found")
	}
	got := l.Keys()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("level-0 order not sorted: %v", got)
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	l := New(arena.New(), 8)
	rng := xrand.New(2)
	if !l.InsertRaw(7, 1, rng) {
		t.Fatal("first insert failed")
	}
	if l.InsertRaw(7, 2, rng) {
		t.Fatal("duplicate insert should be rejected")
	}
	if p, _ := l.SearchRaw(7); p != 1 {
		t.Fatal("duplicate insert must not overwrite the payload")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestLevelDistribution(t *testing.T) {
	l := New(arena.New(), DefaultMaxLevel)
	rng := xrand.New(3)
	const draws = 20000
	counts := make(map[int]int)
	for i := 0; i < draws; i++ {
		lv := l.RandomLevel(rng)
		if lv < 1 || lv > DefaultMaxLevel {
			t.Fatalf("level %d out of range", lv)
		}
		counts[lv]++
	}
	// Roughly half the towers have height 1, a quarter height 2, ...
	if c := counts[1]; c < draws*4/10 || c > draws*6/10 {
		t.Fatalf("height-1 towers = %d of %d, want about half", c, draws)
	}
	if counts[2] >= counts[1] || counts[3] >= counts[2] {
		t.Fatal("tower heights should become geometrically rarer")
	}
}

func TestHigherLevelsAreSubsetsOfLevelZero(t *testing.T) {
	l := New(arena.New(), 12)
	rng := xrand.New(4)
	for k := uint64(1); k <= 500; k++ {
		l.InsertRaw(k*3, k, rng)
	}
	level0 := make(map[uint64]bool)
	for n := l.Next(l.Head(), 0); n != 0; n = l.Next(n, 0) {
		level0[l.NodeKey(n)] = true
	}
	for lvl := 1; lvl < l.Level(); lvl++ {
		prev := uint64(0)
		for n := l.Next(l.Head(), lvl); n != 0; n = l.Next(n, lvl) {
			k := l.NodeKey(n)
			if !level0[k] {
				t.Fatalf("key %d appears at level %d but not at level 0", k, lvl)
			}
			if k <= prev {
				t.Fatalf("level %d not sorted", lvl)
			}
			if l.nodeLevel(n) <= lvl {
				t.Fatalf("node with height %d linked at level %d", l.nodeLevel(n), lvl)
			}
			prev = k
		}
	}
}

func TestMatchesReferenceMap(t *testing.T) {
	f := func(seed uint64) bool {
		build, probe, err := relation.BuildIndexWorkload(512, seed)
		if err != nil {
			return false
		}
		l := New(arena.New(), DefaultMaxLevel)
		rng := xrand.New(seed)
		ref := make(map[uint64]uint64)
		for _, tup := range build.Tuples {
			l.InsertRaw(tup.Key, tup.Payload, rng)
			ref[tup.Key] = tup.Payload
		}
		for _, tup := range probe.Tuples {
			p, ok := l.SearchRaw(tup.Key)
			if !ok || p != ref[tup.Key] {
				return false
			}
		}
		_, ok := l.SearchRaw(uint64(len(ref)) + 10)
		return !ok && l.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestLatch(t *testing.T) {
	l := New(arena.New(), 4)
	rng := xrand.New(5)
	l.InsertRaw(10, 1, rng)
	n := l.Next(l.Head(), 0)
	if !l.TryLatch(n) || l.TryLatch(n) || !l.LatchHeld(n) {
		t.Fatal("latch protocol broken")
	}
	l.Unlatch(n)
	if l.LatchHeld(n) {
		t.Fatal("latch should be free after Unlatch")
	}
}

func TestNodeAccessors(t *testing.T) {
	l := New(arena.New(), 6)
	n := l.NewNode(9, 90, 3)
	if l.NodeKey(n) != 9 || l.NodePayload(n) != 90 || l.nodeLevel(n) != 3 {
		t.Fatal("node fields wrong")
	}
	l.setPayload(n, 91)
	if l.NodePayload(n) != 91 {
		t.Fatal("setPayload failed")
	}
	other := l.NewNode(11, 110, 1)
	l.SetNext(n, 2, other)
	if l.Next(n, 2) != other {
		t.Fatal("SetNext/Next broken")
	}
	if NodeBytes(3) != 24+24 {
		t.Fatalf("NodeBytes(3) = %d", NodeBytes(3))
	}
}

func TestNewNodePanicsOnBadLevel(t *testing.T) {
	l := New(arena.New(), 4)
	for _, lvl := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("level %d should panic", lvl)
				}
			}()
			l.NewNode(1, 1, lvl)
		}()
	}
}

func TestMaxLevelClamping(t *testing.T) {
	if New(arena.New(), 0).MaxLevel() != 1 {
		t.Fatal("max level should clamp up to 1")
	}
	if New(arena.New(), 1000).MaxLevel() != 64 {
		t.Fatal("max level should clamp down to 64")
	}
}
