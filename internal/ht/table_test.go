package ht

import (
	"bytes"
	"testing"
	"testing/quick"

	"amac/internal/arena"
	"amac/internal/relation"
)

func TestBucketAddressesAreLineAlignedAndContiguous(t *testing.T) {
	a := arena.New()
	tab := New(a, 128)
	base := tab.BucketAddr(0)
	if base%NodeBytes != 0 {
		t.Fatalf("bucket 0 not cache-line aligned: %d", base)
	}
	for b := uint64(1); b < tab.NumBuckets(); b++ {
		if tab.BucketAddr(b) != base+arena.Addr(b*NodeBytes) {
			t.Fatalf("bucket %d not contiguous", b)
		}
	}
}

func TestLargeTableSpansChunksContiguously(t *testing.T) {
	a := arena.New()
	// 3 MB of buckets: larger than one arena chunk.
	tab := New(a, 3*(1<<20)/NodeBytes)
	last := tab.NumBuckets() - 1
	if tab.BucketAddr(last) != tab.BucketAddr(0)+arena.Addr(last*NodeBytes) {
		t.Fatal("bucket array must stay contiguous across arena chunks")
	}
	// The last bucket must be addressable.
	if tab.NodeCount(tab.BucketAddr(last)) != 0 {
		t.Fatal("fresh bucket should be empty")
	}
}

func TestInsertAndLookupSingleBucket(t *testing.T) {
	a := arena.New()
	tab := New(a, 4)
	tab.InsertRaw(1, 100)
	tab.InsertRaw(5, 500) // 5-1 % 4 == 0: same bucket as key 1
	tab.InsertRaw(9, 900) // same bucket again: forces an overflow node

	if got := tab.LookupAllRaw(1); len(got) != 1 || got[0] != 100 {
		t.Fatalf("lookup(1) = %v", got)
	}
	if got := tab.LookupAllRaw(9); len(got) != 1 || got[0] != 900 {
		t.Fatalf("lookup(9) = %v", got)
	}
	if tab.OverflowNodes() != 1 {
		t.Fatalf("overflow nodes = %d, want 1", tab.OverflowNodes())
	}
	if tab.chainLength(1) != 2 {
		t.Fatalf("chain length = %d, want 2", tab.chainLength(1))
	}
	if got := tab.LookupAllRaw(3); len(got) != 0 {
		t.Fatalf("lookup of absent key returned %v", got)
	}
}

func TestDuplicateKeysAllReturned(t *testing.T) {
	a := arena.New()
	tab := New(a, 8)
	for i := uint64(0); i < 5; i++ {
		tab.InsertRaw(7, 70+i)
	}
	got := tab.LookupAllRaw(7)
	if len(got) != 5 {
		t.Fatalf("lookup(7) returned %d payloads, want 5", len(got))
	}
}

func TestUniformDenseKeysGiveExactChains(t *testing.T) {
	// The Figure 3 "uniform" construction: |R| dense unique keys into
	// |R|/4 buckets gives exactly 4 tuples (2 nodes) per bucket.
	a := arena.New()
	const n = 1 << 10
	tab := New(a, n/4)
	for k := uint64(1); k <= n; k++ {
		tab.InsertRaw(k, k)
	}
	for k := uint64(1); k <= n; k++ {
		if got := tab.chainLength(k); got != 2 {
			t.Fatalf("key %d chain length = %d, want 2", k, got)
		}
	}
	s := tab.ComputeStats()
	if s.Tuples != n || s.MaxChain != 2 {
		t.Fatalf("stats %v", s)
	}
	if s.String() == "" {
		t.Fatal("Stats.String should render")
	}
}

func TestSkewedKeysProduceLongChains(t *testing.T) {
	a := arena.New()
	build, _, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1, ZipfBuild: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tab := New(a, build.Len()/4)
	for _, tup := range build.Tuples {
		tab.InsertRaw(tup.Key, tup.Payload)
	}
	if tab.ComputeStats().MaxChain <= 4 {
		t.Fatalf("Zipf(1.0) build should produce chains much longer than uniform, max = %d", tab.ComputeStats().MaxChain)
	}
}

func TestTableMatchesMapReference(t *testing.T) {
	f := func(seed uint64) bool {
		build, probe, err := relation.BuildJoin(relation.JoinSpec{
			BuildSize: 512, ProbeSize: 256, ZipfBuild: 0.75, ZipfProbe: 0.5, Seed: seed,
		})
		if err != nil {
			return false
		}
		a := arena.New()
		tab := New(a, build.Len()/4)
		ref := make(map[uint64][]uint64)
		for _, tup := range build.Tuples {
			tab.InsertRaw(tup.Key, tup.Payload)
			ref[tup.Key] = append(ref[tup.Key], tup.Payload)
		}
		for _, tup := range probe.Tuples {
			got := tab.LookupAllRaw(tup.Key)
			want := ref[tup.Key]
			if len(got) != len(want) {
				return false
			}
			sum := uint64(0)
			for _, p := range got {
				sum += p
			}
			wsum := uint64(0)
			for _, p := range want {
				wsum += p
			}
			if sum != wsum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestLatch(t *testing.T) {
	a := arena.New()
	tab := New(a, 2)
	n := tab.BucketAddr(0)
	if !tab.TryLatch(n) {
		t.Fatal("latch should be free initially")
	}
	if tab.TryLatch(n) {
		t.Fatal("latch should not be acquirable twice")
	}
	if !tab.LatchHeld(n) {
		t.Fatal("LatchHeld should report true")
	}
	tab.Unlatch(n)
	if !tab.TryLatch(n) {
		t.Fatal("latch should be acquirable after release")
	}
}

func TestAppendTupleRespectsCapacity(t *testing.T) {
	a := arena.New()
	tab := New(a, 1)
	n := tab.BucketAddr(0)
	if !tab.AppendTuple(n, 1, 10) || !tab.AppendTuple(n, 2, 20) {
		t.Fatal("two tuples must fit in a node")
	}
	if tab.AppendTuple(n, 3, 30) {
		t.Fatal("third tuple must not fit")
	}
	if tab.NodeCount(n) != 2 || tab.NodeKey(n, 1) != 2 || tab.NodePayload(n, 1) != 20 {
		t.Fatal("node contents wrong")
	}
}

func TestMinimumBucketCount(t *testing.T) {
	a := arena.New()
	tab := New(a, 0)
	if tab.NumBuckets() != 1 {
		t.Fatalf("NumBuckets = %d, want 1", tab.NumBuckets())
	}
	tab.InsertRaw(1, 1)
	tab.InsertRaw(2, 2)
	tab.InsertRaw(3, 3)
	if got := tab.LookupAllRaw(3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("lookup(3) = %v", got)
	}
	if tab.SizeBytes() == 0 || tab.BaseAddr() == 0 {
		t.Fatal("size/base accessors broken")
	}
}

// spanOf writes keys (payload i+1 for key i) into a fresh span of a, as
// ops.NewInput lays out a relation, and returns the span's base.
func spanOf(a *arena.Arena, keys []uint64) arena.Addr {
	base := a.AllocSpan(uint64(max(len(keys), 1)) * relation.TupleBytes)
	for i, k := range keys {
		addr := base + arena.Addr(i*relation.TupleBytes)
		a.WriteU64(addr, k)
		a.WriteU64(addr+8, uint64(i)+1)
	}
	return base
}

// allBytes returns every byte a has handed out.
func allBytes(a *arena.Arena) []byte {
	var out []byte
	for addr := uint64(NodeBytes); addr < a.Size(); addr += NodeBytes {
		out = append(out, a.Bytes(arena.Addr(addr), int(min(NodeBytes, a.Size()-addr)))...)
	}
	return out
}

// TestInsertTuplesRawMatchesInsertRaw checks InsertTuplesRaw against an
// InsertRaw loop at the edges of its look-ahead ring (fewer tuples than the
// ring, exactly as many, one more) and with small chunks, so the span and
// the overflow nodes cross many chunk edges.
func TestInsertTuplesRawMatchesInsertRaw(t *testing.T) {
	for _, n := range []int{0, 1, prebuildAhead - 1, prebuildAhead, prebuildAhead + 1, 3*prebuildAhead + 5, 1000} {
		for _, chunk := range []int{128, 4096, arena.DefaultChunkBytes} {
			for _, buckets := range []int{1, 3, 64} {
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = uint64(i*i%11) + 1
				}
				a, b := arena.NewWithChunkSize(chunk), arena.NewWithChunkSize(chunk)
				got, want := New(a, buckets), New(b, buckets)
				base := spanOf(a, keys)
				spanOf(b, keys)
				got.InsertTuplesRaw(base, n)
				for i, k := range keys {
					want.InsertRaw(k, uint64(i)+1)
				}
				if a.Size() != b.Size() || got.OverflowNodes() != want.OverflowNodes() || !bytes.Equal(allBytes(a), allBytes(b)) {
					t.Fatalf("n=%d chunk=%d buckets=%d: InsertTuplesRaw's arena differs from the InsertRaw loop's", n, chunk, buckets)
				}
			}
		}
	}
}
