// Package ht implements the chained hash tables used by the paper's hash
// join and group-by workloads.
//
// The join table follows the highly optimized no-partitioning layout of
// Balkesen et al. that the paper adopts (Section 4): every bucket is one
// 64-byte cache line holding a 1-byte latch, a 1-byte tuple count, two
// 16-byte tuples, and an 8-byte pointer to an overflow node used on
// collisions. The first node of every chain is clustered with the bucket
// header, so a lookup that finds its key in the bucket costs a single memory
// access.
//
// The group-by table (see AggTable) extends the same design with aggregation
// fields, as described in Section 5.2 of the paper.
//
// The tables store their nodes in an arena so that every node visit
// corresponds to one simulated memory access; none of the methods here charge
// simulator time — the operator stage machines do that explicitly.
package ht

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"amac/internal/arena"
	"amac/internal/memsim"
	"amac/internal/relation"
)

// Layout of a join-table node (one 64-byte cache line):
//
//	offset  0: latch   (1 byte)
//	offset  1: count   (1 byte; number of tuples in this node, 0..2)
//	offset  8: key[0]  (8 bytes)
//	offset 16: pay[0]  (8 bytes)
//	offset 24: key[1]  (8 bytes)
//	offset 32: pay[1]  (8 bytes)
//	offset 40: next    (8 bytes; arena address of the overflow node, 0 = none)
const (
	offLatch = 0
	offCount = 1
	offKey0  = 8
	offPay0  = 16
	offKey1  = 24
	offPay1  = 32
	offNext  = 40

	// NodeBytes is the size of one hash-table node.
	NodeBytes = memsim.LineSize
	// TuplesPerNode is the number of tuples clustered in one node.
	TuplesPerNode = 2
)

// Table is a chained hash table for hash-join build and probe.
type Table struct {
	a        *arena.Arena
	buckets  arena.Addr
	nbuckets uint64
	hashM    uint64 // Lemire fast-mod magic for nbuckets (0 = use %)

	overflowNodes uint64
}

// New allocates a table with nbuckets bucket headers (rounded up to one).
// Buckets are laid out contiguously, one cache line each.
func New(a *arena.Arena, nbuckets int) *Table {
	if nbuckets < 1 {
		nbuckets = 1
	}
	t := &Table{a: a, nbuckets: uint64(nbuckets)}
	if t.nbuckets > 1 && t.nbuckets < 1<<32 {
		t.hashM = ^uint64(0)/t.nbuckets + 1
	}
	t.buckets = a.AllocSpan(uint64(nbuckets) * NodeBytes)
	return t
}

// NumBuckets returns the number of bucket headers.
func (t *Table) NumBuckets() uint64 { return t.nbuckets }

// OverflowNodes returns how many overflow nodes have been allocated.
func (t *Table) OverflowNodes() uint64 { return t.overflowNodes }

// BaseAddr returns the address of bucket 0 (used for cache warming).
func (t *Table) BaseAddr() arena.Addr { return t.buckets }

// SizeBytes returns the footprint of the bucket array plus overflow nodes.
func (t *Table) SizeBytes() uint64 { return (t.nbuckets + t.overflowNodes) * NodeBytes }

// Hash maps a key to a bucket index. Keys in this repository are dense
// integers starting at 1 (see package relation), so, like the radix-style
// hashing of the original implementation, a modulo spread gives a perfectly
// even distribution for unique keys; skew in the key values translates
// directly into skewed bucket occupancy, which is the effect the paper
// studies. The modulo itself runs once per lookup, so 32-bit-safe keys take
// the Lemire fast-mod double multiply instead of the hardware divide.
func (t *Table) Hash(key uint64) uint64 {
	k := key - 1
	if t.hashM != 0 && k < 1<<32 {
		mod, _ := bits.Mul64(t.hashM*k, t.nbuckets)
		return mod
	}
	return k % t.nbuckets
}

// BucketAddr returns the address of the bucket header for a hash value.
func (t *Table) BucketAddr(hash uint64) arena.Addr {
	return t.buckets + arena.Addr(hash*NodeBytes)
}

// AllocNode allocates a fresh overflow node and returns its address.
func (t *Table) AllocNode() arena.Addr {
	t.overflowNodes++
	return t.a.Alloc(NodeBytes, memsim.LineSize)
}

// --- Node field accessors (raw; no simulator time is charged) ---

// NodeRef is a zero-copy view of one node's 64 bytes, aliasing the arena.
// The stage machines fetch it once per node visit and decode every field
// from it, instead of paying a bounds-checked arena access per field. Writes
// through a NodeRef are visible to the arena immediately; the view never
// goes stale because arena chunks do not move.
type NodeRef []byte

// Prefetch is a host-only hint to pull node n's bytes into the host cache
// (see arena.Arena.Prefetch); it charges no simulated time.
func (t *Table) Prefetch(n arena.Addr) { t.a.Prefetch(n) }

// Node returns the view of the node at n.
func (t *Table) Node(n arena.Addr) NodeRef { return NodeRef(t.a.Bytes(n, NodeBytes)) }

// Count returns the number of tuples stored in the node (0..2).
func (n NodeRef) Count() int { return int(n[offCount]) }

// Key returns the key in the given slot.
func (n NodeRef) Key(slot int) uint64 {
	return binary.LittleEndian.Uint64(n[offKey0+slot*16:])
}

// Payload returns the payload in the given slot.
func (n NodeRef) Payload(slot int) uint64 {
	return binary.LittleEndian.Uint64(n[offPay0+slot*16:])
}

// Next returns the overflow pointer (0 means end of chain).
func (n NodeRef) Next() arena.Addr {
	return arena.Addr(binary.LittleEndian.Uint64(n[offNext:]))
}

// setNext updates the overflow pointer through the view.
func (n NodeRef) setNext(next arena.Addr) {
	binary.LittleEndian.PutUint64(n[offNext:], uint64(next))
}

// appendTuple inserts a tuple through the view if there is room.
func (n NodeRef) appendTuple(key, payload uint64) bool {
	c := int(n[offCount])
	if c >= TuplesPerNode {
		return false
	}
	binary.LittleEndian.PutUint64(n[offKey0+c*16:], key)
	binary.LittleEndian.PutUint64(n[offPay0+c*16:], payload)
	n[offCount] = uint8(c + 1)
	return true
}

// NodeCount returns the number of tuples stored in the node.
func (t *Table) NodeCount(n arena.Addr) int { return int(t.a.ReadU8(n + offCount)) }

// setNodeCount updates the tuple count.
func (t *Table) setNodeCount(n arena.Addr, c int) { t.a.WriteU8(n+offCount, uint8(c)) }

// NodeKey returns the key in the given slot (0 or 1).
func (t *Table) NodeKey(n arena.Addr, slot int) uint64 {
	return t.a.ReadU64(n + offKey0 + arena.Addr(slot*16))
}

// NodePayload returns the payload in the given slot (0 or 1).
func (t *Table) NodePayload(n arena.Addr, slot int) uint64 {
	return t.a.ReadU64(n + offPay0 + arena.Addr(slot*16))
}

// NodeNext returns the overflow pointer (0 means end of chain).
func (t *Table) NodeNext(n arena.Addr) arena.Addr { return t.a.ReadAddr(n + offNext) }

// SetNodeNext updates the overflow pointer.
func (t *Table) SetNodeNext(n, next arena.Addr) { t.a.WriteAddr(n+offNext, next) }

// SetNodeTuple writes a tuple into the given slot.
func (t *Table) SetNodeTuple(n arena.Addr, slot int, key, payload uint64) {
	t.a.WriteU64(n+offKey0+arena.Addr(slot*16), key)
	t.a.WriteU64(n+offPay0+arena.Addr(slot*16), payload)
}

// TryLatch attempts to acquire the node's latch and reports success. The
// simulation is single-threaded, so this is a plain read-modify-write; the
// AMAC, GP and SPP engines still exercise the latch-busy paths because a
// lookup can encounter a latch held by another in-flight lookup of the same
// thread (hash join build, group-by).
func (t *Table) TryLatch(n arena.Addr) bool {
	if t.a.ReadU8(n+offLatch) != 0 {
		return false
	}
	t.a.WriteU8(n+offLatch, 1)
	return true
}

// Unlatch releases the node's latch.
func (t *Table) Unlatch(n arena.Addr) { t.a.WriteU8(n+offLatch, 0) }

// LatchHeld reports whether the latch is currently held.
func (t *Table) LatchHeld(n arena.Addr) bool { return t.a.ReadU8(n+offLatch) != 0 }

// AppendTuple inserts a tuple into node n if it has a free slot and reports
// whether it did.
func (t *Table) AppendTuple(n arena.Addr, key, payload uint64) bool {
	c := t.NodeCount(n)
	if c >= TuplesPerNode {
		return false
	}
	t.SetNodeTuple(n, c, key, payload)
	t.setNodeCount(n, c+1)
	return true
}

// InsertRaw adds a tuple to the table without charging any simulator time.
// It is used to populate tables for probe-only experiments and by tests.
//
// Insertion follows the reference implementation's constant-time scheme: try
// the bucket header, then the first overflow node; if both are full, a fresh
// node is spliced in right behind the header. Inserts therefore cost at most
// two node visits regardless of chain length, which is why the paper's build
// phase is insensitive to key skew (Section 5.1).
func (t *Table) InsertRaw(key, payload uint64) {
	t.insertAt(t.BucketAddr(t.Hash(key)), key, payload)
}

// insertAt applies InsertRaw's rule to the bucket whose header is at bucket.
func (t *Table) insertAt(bucket arena.Addr, key, payload uint64) {
	header := t.Node(bucket)
	if header.appendTuple(key, payload) {
		return
	}
	next := header.Next()
	if next != 0 && t.Node(next).appendTuple(key, payload) {
		return
	}
	node := t.AllocNode()
	nv := t.Node(node)
	nv.setNext(next)
	header.setNext(node)
	nv.appendTuple(key, payload)
}

// prebuildAhead is how many tuples ahead of its insert InsertTuplesRaw
// prefetches a bucket header. It is a power of two, so the look-ahead ring
// indexes with a mask.
const prebuildAhead = 16

// pendingInsert is a tuple InsertTuplesRaw has read and hashed but not yet
// inserted.
type pendingInsert struct {
	key, payload uint64
	bucket       arena.Addr
}

// InsertTuplesRaw inserts the n tuples stored from base — 16-byte
// little-endian (key, payload) pairs, relation.TupleBytes apart, as
// ops.Input lays them out — without charging simulator time. The table ends
// up byte for byte as an InsertRaw loop over the tuples in order would leave
// it: the inserts run in span order through InsertRaw's rule, so overflow
// nodes are allocated in the same order at the same addresses. base must be
// a multiple of relation.TupleBytes (an Input's base is line-aligned), so no
// tuple straddles an arena chunk edge.
//
// It reads the span one arena chunk at a time and hashes each tuple once.
// A tuple is hashed prebuildAhead places before its insert, and its bucket
// header is prefetched then, so the header misses of successive inserts
// overlap. The prefetch is a host hint only (arena.Arena.Prefetch): it
// writes nothing and has no simulated effect.
func (t *Table) InsertTuplesRaw(base arena.Addr, n int) {
	var ring [prebuildAhead]pendingInsert
	addr, i := base, 0
	for i < n {
		b := t.a.BytesInChunk(addr, uint64(n-i)*relation.TupleBytes)
		addr += arena.Addr(len(b))
		for ; len(b) >= relation.TupleBytes; b = b[relation.TupleBytes:] {
			key := binary.LittleEndian.Uint64(b)
			bucket := t.BucketAddr(t.Hash(key))
			t.a.Prefetch(bucket)
			p := &ring[i&(prebuildAhead-1)]
			if i >= prebuildAhead {
				t.insertAt(p.bucket, p.key, p.payload)
			}
			*p = pendingInsert{key, binary.LittleEndian.Uint64(b[8:]), bucket}
			i++
		}
	}
	for j := max(n-prebuildAhead, 0); j < n; j++ {
		p := &ring[j&(prebuildAhead-1)]
		t.insertAt(p.bucket, p.key, p.payload)
	}
}

// LookupAllRaw returns the payloads of every tuple whose key matches,
// walking the chain without charging simulator time. It is the reference
// used to validate the engine-driven probes.
func (t *Table) LookupAllRaw(key uint64) []uint64 {
	var out []uint64
	n := t.BucketAddr(t.Hash(key))
	for n != 0 {
		node := t.Node(n)
		cnt := node.Count()
		for s := 0; s < cnt; s++ {
			if node.Key(s) == key {
				out = append(out, node.Payload(s))
			}
		}
		n = node.Next()
	}
	return out
}

// chainLength returns the number of nodes in the chain of the bucket that
// key hashes to (used by tests and by the Figure 3 workload construction).
func (t *Table) chainLength(key uint64) int {
	n := t.BucketAddr(t.Hash(key))
	length := 0
	for n != 0 {
		length++
		n = t.NodeNext(n)
	}
	return length
}

// Stats summarises occupancy for reporting and tests.
type Stats struct {
	Buckets       uint64
	OverflowNodes uint64
	Tuples        uint64
	MaxChain      int
}

// ComputeStats walks the whole table.
func (t *Table) ComputeStats() Stats {
	s := Stats{Buckets: t.nbuckets, OverflowNodes: t.overflowNodes}
	for b := uint64(0); b < t.nbuckets; b++ {
		n := t.BucketAddr(b)
		chain := 0
		for n != 0 {
			chain++
			s.Tuples += uint64(t.NodeCount(n))
			n = t.NodeNext(n)
		}
		if chain > s.MaxChain {
			s.MaxChain = chain
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("buckets=%d overflow=%d tuples=%d maxChain=%d", s.Buckets, s.OverflowNodes, s.Tuples, s.MaxChain)
}
