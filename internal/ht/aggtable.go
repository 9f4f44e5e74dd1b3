package ht

import (
	"encoding/binary"
	"math/bits"

	"amac/internal/arena"
	"amac/internal/memsim"
)

// AggTable is the group-by hash table: the join table's chained design
// extended with aggregation fields, as in Section 5.2 of the paper. Each
// node holds one group (one distinct key) and maintains the running state
// needed for the six aggregate functions the paper applies on every match
// (count, sum, sum of squares, min, max, and average, which is derived).
//
// Node layout (one 64-byte cache line):
//
//	offset  0: latch (1 byte)
//	offset  1: used  (1 byte; 0 = empty node)
//	offset  8: key
//	offset 16: count
//	offset 24: sum
//	offset 32: sum of squares
//	offset 40: min
//	offset 48: max
//	offset 56: next
type AggTable struct {
	a        *arena.Arena
	buckets  arena.Addr
	nbuckets uint64
	hashM    uint64 // Lemire fast-mod magic for nbuckets (0 = use %)

	overflowNodes uint64
}

const (
	aggOffLatch = 0
	aggOffUsed  = 1
	aggOffKey   = 8
	aggOffCount = 16
	aggOffSum   = 24
	aggOffSumSq = 32
	aggOffMin   = 40
	aggOffMax   = 48
	aggOffNext  = 56
)

// Aggregates is the materialized result of one group.
type Aggregates struct {
	Key   uint64
	Count uint64
	Sum   uint64
	SumSq uint64
	Min   uint64
	Max   uint64
}

// Avg returns the mean payload of the group (0 for an empty group).
func (g Aggregates) Avg() float64 {
	if g.Count == 0 {
		return 0
	}
	return float64(g.Sum) / float64(g.Count)
}

// NewAgg allocates a group-by table with nbuckets bucket headers.
func NewAgg(a *arena.Arena, nbuckets int) *AggTable {
	if nbuckets < 1 {
		nbuckets = 1
	}
	t := &AggTable{a: a, nbuckets: uint64(nbuckets)}
	if t.nbuckets > 1 && t.nbuckets < 1<<32 {
		t.hashM = ^uint64(0)/t.nbuckets + 1
	}
	t.buckets = a.AllocSpan(uint64(nbuckets) * NodeBytes)
	return t
}

// NumBuckets returns the number of bucket headers.
func (t *AggTable) NumBuckets() uint64 { return t.nbuckets }

// OverflowNodes returns how many overflow nodes have been allocated.
func (t *AggTable) OverflowNodes() uint64 { return t.overflowNodes }

// BaseAddr returns the address of bucket 0.
func (t *AggTable) BaseAddr() arena.Addr { return t.buckets }

// SizeBytes returns the footprint of the bucket array plus overflow nodes.
func (t *AggTable) SizeBytes() uint64 { return (t.nbuckets + t.overflowNodes) * NodeBytes }

// Hash maps a key to a bucket index (same scheme as the join table,
// including the fast-mod fast path).
func (t *AggTable) Hash(key uint64) uint64 {
	k := key - 1
	if t.hashM != 0 && k < 1<<32 {
		mod, _ := bits.Mul64(t.hashM*k, t.nbuckets)
		return mod
	}
	return k % t.nbuckets
}

// BucketAddr returns the address of the bucket header for a hash value.
func (t *AggTable) BucketAddr(hash uint64) arena.Addr {
	return t.buckets + arena.Addr(hash*NodeBytes)
}

// AllocNode allocates a fresh overflow node.
func (t *AggTable) AllocNode() arena.Addr {
	t.overflowNodes++
	return t.a.Alloc(NodeBytes, memsim.LineSize)
}

// AggNodeRef is a zero-copy view of one group node's 64 bytes, aliasing the
// arena (see ht.NodeRef). The group-by stage machine decodes a node visit
// and applies the aggregate update through it with a single bounds check.
type AggNodeRef []byte

// Prefetch is a host-only hint to pull node n's bytes into the host cache
// (see arena.Arena.Prefetch); it charges no simulated time.
func (t *AggTable) Prefetch(n arena.Addr) { t.a.Prefetch(n) }

// Node returns the view of the node at n.
func (t *AggTable) Node(n arena.Addr) AggNodeRef { return AggNodeRef(t.a.Bytes(n, NodeBytes)) }

// Used reports whether the node holds a group.
func (n AggNodeRef) Used() bool { return n[aggOffUsed] != 0 }

// Key returns the group key stored in the node.
func (n AggNodeRef) Key() uint64 { return binary.LittleEndian.Uint64(n[aggOffKey:]) }

// Next returns the overflow pointer (0 = end of chain).
func (n AggNodeRef) Next() arena.Addr {
	return arena.Addr(binary.LittleEndian.Uint64(n[aggOffNext:]))
}

// Update folds payload into the node's aggregates through the view.
func (n AggNodeRef) Update(payload uint64) {
	binary.LittleEndian.PutUint64(n[aggOffCount:], binary.LittleEndian.Uint64(n[aggOffCount:])+1)
	binary.LittleEndian.PutUint64(n[aggOffSum:], binary.LittleEndian.Uint64(n[aggOffSum:])+payload)
	binary.LittleEndian.PutUint64(n[aggOffSumSq:], binary.LittleEndian.Uint64(n[aggOffSumSq:])+payload*payload)
	if payload < binary.LittleEndian.Uint64(n[aggOffMin:]) {
		binary.LittleEndian.PutUint64(n[aggOffMin:], payload)
	}
	if payload > binary.LittleEndian.Uint64(n[aggOffMax:]) {
		binary.LittleEndian.PutUint64(n[aggOffMax:], payload)
	}
}

// NodeUsed reports whether the node holds a group.
func (t *AggTable) NodeUsed(n arena.Addr) bool { return t.a.ReadU8(n+aggOffUsed) != 0 }

// NodeKey returns the group key stored in the node.
func (t *AggTable) NodeKey(n arena.Addr) uint64 { return t.a.ReadU64(n + aggOffKey) }

// NodeNext returns the overflow pointer (0 = end of chain).
func (t *AggTable) NodeNext(n arena.Addr) arena.Addr { return t.a.ReadAddr(n + aggOffNext) }

// SetNodeNext updates the overflow pointer.
func (t *AggTable) SetNodeNext(n, next arena.Addr) { t.a.WriteAddr(n+aggOffNext, next) }

// TryLatch attempts to acquire the node latch and reports success.
func (t *AggTable) TryLatch(n arena.Addr) bool {
	if t.a.ReadU8(n+aggOffLatch) != 0 {
		return false
	}
	t.a.WriteU8(n+aggOffLatch, 1)
	return true
}

// Unlatch releases the node latch.
func (t *AggTable) Unlatch(n arena.Addr) { t.a.WriteU8(n+aggOffLatch, 0) }

// LatchHeld reports whether the latch is currently held.
func (t *AggTable) LatchHeld(n arena.Addr) bool { return t.a.ReadU8(n+aggOffLatch) != 0 }

// InitGroup claims an empty node for a new group and applies the first value.
func (t *AggTable) InitGroup(n arena.Addr, key, payload uint64) {
	t.a.WriteU8(n+aggOffUsed, 1)
	t.a.WriteU64(n+aggOffKey, key)
	t.a.WriteU64(n+aggOffCount, 1)
	t.a.WriteU64(n+aggOffSum, payload)
	t.a.WriteU64(n+aggOffSumSq, payload*payload)
	t.a.WriteU64(n+aggOffMin, payload)
	t.a.WriteU64(n+aggOffMax, payload)
}

// UpdateGroup folds payload into the aggregates of an existing group node.
func (t *AggTable) UpdateGroup(n arena.Addr, payload uint64) {
	t.Node(n).Update(payload)
}

// Group materializes the aggregates held by a node.
func (t *AggTable) Group(n arena.Addr) Aggregates {
	return Aggregates{
		Key:   t.a.ReadU64(n + aggOffKey),
		Count: t.a.ReadU64(n + aggOffCount),
		Sum:   t.a.ReadU64(n + aggOffSum),
		SumSq: t.a.ReadU64(n + aggOffSumSq),
		Min:   t.a.ReadU64(n + aggOffMin),
		Max:   t.a.ReadU64(n + aggOffMax),
	}
}

// upsertRaw folds one tuple into the table without charging simulator time.
// It is the reference path used to validate the engine-driven group-by.
func (t *AggTable) upsertRaw(key, payload uint64) {
	n := t.BucketAddr(t.Hash(key))
	for {
		if !t.NodeUsed(n) {
			t.InitGroup(n, key, payload)
			return
		}
		if t.NodeKey(n) == key {
			t.UpdateGroup(n, payload)
			return
		}
		next := t.NodeNext(n)
		if next == 0 {
			next = t.AllocNode()
			t.SetNodeNext(n, next)
		}
		n = next
	}
}

// LookupGroupRaw returns the aggregates for key and whether the group exists.
func (t *AggTable) LookupGroupRaw(key uint64) (Aggregates, bool) {
	n := t.BucketAddr(t.Hash(key))
	for n != 0 {
		if t.NodeUsed(n) && t.NodeKey(n) == key {
			return t.Group(n), true
		}
		n = t.NodeNext(n)
	}
	return Aggregates{}, false
}

// Groups walks the whole table and returns every group. Order is by bucket
// and chain position; callers that need a canonical order must sort.
func (t *AggTable) Groups() []Aggregates {
	var out []Aggregates
	for b := uint64(0); b < t.nbuckets; b++ {
		n := t.BucketAddr(b)
		for n != 0 {
			if t.NodeUsed(n) {
				out = append(out, t.Group(n))
			}
			n = t.NodeNext(n)
		}
	}
	return out
}
