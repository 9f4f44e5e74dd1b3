package bst

import (
	"sort"
	"testing"
	"testing/quick"

	"amac/internal/arena"
	"amac/internal/relation"
)

func TestEmptyTree(t *testing.T) {
	tr := New(arena.New())
	if tr.Root() != 0 || tr.Len() != 0 || tr.height() != 0 {
		t.Fatal("empty tree invariants broken")
	}
	if _, ok := tr.SearchRaw(1); ok {
		t.Fatal("search in empty tree should fail")
	}
	if tr.Depth(1) != 0 {
		t.Fatal("depth of absent key should be 0")
	}
}

func TestInsertAndSearch(t *testing.T) {
	tr := New(arena.New())
	keys := []uint64{50, 25, 75, 10, 30, 60, 90}
	for i, k := range keys {
		tr.Insert(k, uint64(i)+1000)
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i, k := range keys {
		p, ok := tr.SearchRaw(k)
		if !ok || p != uint64(i)+1000 {
			t.Fatalf("search(%d) = %d,%v", k, p, ok)
		}
	}
	if _, ok := tr.SearchRaw(55); ok {
		t.Fatal("absent key reported found")
	}
	if tr.Depth(50) != 1 || tr.Depth(10) != 3 {
		t.Fatalf("depths: root=%d leaf=%d", tr.Depth(50), tr.Depth(10))
	}
}

func TestInOrderIsSorted(t *testing.T) {
	f := func(seed uint64) bool {
		build, _, err := relation.BuildIndexWorkload(256, seed)
		if err != nil {
			return false
		}
		tr := New(arena.New())
		for _, tup := range build.Tuples {
			tr.Insert(tup.Key, tup.Payload)
		}
		keys := tr.inOrderKeys()
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) && len(keys) == 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeHeightIsLogarithmic(t *testing.T) {
	build, _, err := relation.BuildIndexWorkload(1<<12, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(arena.New())
	for _, tup := range build.Tuples {
		tr.Insert(tup.Key, tup.Payload)
	}
	// A random BST over n keys has expected height ~2.99 log2(n); 12 levels
	// of keys should comfortably stay under 48.
	if h := tr.height(); h < 12 || h > 48 {
		t.Fatalf("height %d outside the plausible range for a random BST of 4096 keys", h)
	}
}

func TestSortedInsertYieldsDegenerateTree(t *testing.T) {
	tr := New(arena.New())
	for k := uint64(1); k <= 64; k++ {
		tr.Insert(k, k)
	}
	if tr.height() != 64 {
		t.Fatalf("sorted insert should produce a linked list, height = %d", tr.height())
	}
}

func TestChildFollowsComparison(t *testing.T) {
	tr := New(arena.New())
	tr.Insert(10, 1)
	tr.Insert(5, 2)
	tr.Insert(15, 3)
	root := tr.Root()
	if tr.child(root, 3) != tr.Left(root) {
		t.Fatal("smaller key should go left")
	}
	if tr.child(root, 12) != tr.Right(root) {
		t.Fatal("larger key should go right")
	}
	if tr.child(root, 10) != tr.Right(root) {
		t.Fatal("equal key goes right by convention")
	}
	if tr.Key(root) != 10 || tr.Payload(root) != 1 {
		t.Fatal("root accessors wrong")
	}
}

func TestEveryProbeKeyFoundInIndexWorkload(t *testing.T) {
	build, probe, err := relation.BuildIndexWorkload(2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(arena.New())
	ref := make(map[uint64]uint64, build.Len())
	for _, tup := range build.Tuples {
		tr.Insert(tup.Key, tup.Payload)
		ref[tup.Key] = tup.Payload
	}
	for _, tup := range probe.Tuples {
		p, ok := tr.SearchRaw(tup.Key)
		if !ok || p != ref[tup.Key] {
			t.Fatalf("probe key %d: got %d,%v want %d", tup.Key, p, ok, ref[tup.Key])
		}
	}
}

func TestNodesAreCacheLineAligned(t *testing.T) {
	tr := New(arena.New())
	tr.Insert(1, 1)
	tr.Insert(2, 2)
	if tr.Root()%64 != 0 {
		t.Fatalf("node at %d not cache-line aligned", tr.Root())
	}
	if r := tr.Right(tr.Root()); r%64 != 0 {
		t.Fatalf("node at %d not cache-line aligned", r)
	}
}
