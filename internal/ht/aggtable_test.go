package ht

import (
	"testing"
	"testing/quick"

	"amac/internal/arena"
	"amac/internal/relation"
)

func TestAggSingleGroup(t *testing.T) {
	a := arena.New()
	tab := NewAgg(a, 4)
	for _, v := range []uint64{5, 1, 9} {
		tab.upsertRaw(42, v)
	}
	g, ok := tab.LookupGroupRaw(42)
	if !ok {
		t.Fatal("group not found")
	}
	if g.Count != 3 || g.Sum != 15 || g.Min != 1 || g.Max != 9 || g.SumSq != 25+1+81 {
		t.Fatalf("aggregates %+v", g)
	}
	if g.Avg() != 5 {
		t.Fatalf("avg = %v", g.Avg())
	}
	if _, ok := tab.LookupGroupRaw(43); ok {
		t.Fatal("absent group reported present")
	}
}

func TestAggCollisionsChain(t *testing.T) {
	a := arena.New()
	tab := NewAgg(a, 2)
	// Keys 1, 3, 5 all hash to bucket 0 with 2 buckets.
	tab.upsertRaw(1, 10)
	tab.upsertRaw(3, 30)
	tab.upsertRaw(5, 50)
	if tab.OverflowNodes() == 0 {
		t.Fatal("collisions should have allocated overflow nodes")
	}
	for _, k := range []uint64{1, 3, 5} {
		g, ok := tab.LookupGroupRaw(k)
		if !ok || g.Sum != k*10 {
			t.Fatalf("group %d: %+v ok=%v", k, g, ok)
		}
	}
	if len(tab.Groups()) != 3 {
		t.Fatalf("Groups returned %d entries", len(tab.Groups()))
	}
}

func TestAggMatchesMapReference(t *testing.T) {
	f := func(seed uint64) bool {
		rel, err := relation.BuildGroupBy(relation.GroupBySpec{Size: 600, Repeats: 3, Zipf: 0.5, Seed: seed})
		if err != nil {
			return false
		}
		a := arena.New()
		tab := NewAgg(a, 64)
		type agg struct {
			count, sum, min, max uint64
		}
		ref := make(map[uint64]*agg)
		for _, tup := range rel.Tuples {
			tab.upsertRaw(tup.Key, tup.Payload)
			r := ref[tup.Key]
			if r == nil {
				r = &agg{min: tup.Payload, max: tup.Payload}
				ref[tup.Key] = r
			} else {
				if tup.Payload < r.min {
					r.min = tup.Payload
				}
				if tup.Payload > r.max {
					r.max = tup.Payload
				}
			}
			r.count++
			r.sum += tup.Payload
		}
		for k, r := range ref {
			g, ok := tab.LookupGroupRaw(k)
			if !ok || g.Count != r.count || g.Sum != r.sum || g.Min != r.min || g.Max != r.max {
				return false
			}
		}
		return len(tab.Groups()) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAggLatch(t *testing.T) {
	a := arena.New()
	tab := NewAgg(a, 2)
	n := tab.BucketAddr(1)
	if !tab.TryLatch(n) || tab.TryLatch(n) || !tab.LatchHeld(n) {
		t.Fatal("latch protocol broken")
	}
	tab.Unlatch(n)
	if tab.LatchHeld(n) {
		t.Fatal("latch should be free after Unlatch")
	}
}

func TestAggAccessors(t *testing.T) {
	a := arena.New()
	tab := NewAgg(a, 0)
	if tab.NumBuckets() != 1 {
		t.Fatalf("NumBuckets = %d", tab.NumBuckets())
	}
	n := tab.BucketAddr(0)
	if tab.NodeUsed(n) {
		t.Fatal("fresh node should be unused")
	}
	tab.InitGroup(n, 7, 3)
	if !tab.NodeUsed(n) || tab.NodeKey(n) != 7 {
		t.Fatal("InitGroup did not set fields")
	}
	tab.UpdateGroup(n, 5)
	g := tab.Group(n)
	if g.Count != 2 || g.Sum != 8 || g.Min != 3 || g.Max != 5 {
		t.Fatalf("aggregates %+v", g)
	}
	next := tab.AllocNode()
	tab.SetNodeNext(n, next)
	if tab.NodeNext(n) != next {
		t.Fatal("next pointer broken")
	}
	if tab.SizeBytes() == 0 || tab.BaseAddr() == 0 {
		t.Fatal("size/base accessors broken")
	}
	var zero Aggregates
	if zero.Avg() != 0 {
		t.Fatal("Avg of empty group should be 0")
	}
}
