// Package skiplist implements the concurrent Pugh skip list used by the
// paper's most complex workload (Section 5.4), following the ASCYLIB-style
// design the paper adopts: every node carries a latch and a tower of forward
// pointers, and inserts first search for the predecessor at every level and
// then splice the new node in under latches.
//
// Nodes live in an arena so traversals map onto simulated memory accesses;
// no method here charges simulator time — operator stage machines do.
package skiplist

import (
	"encoding/binary"
	"fmt"

	"amac/internal/arena"
	"amac/internal/memsim"
	"amac/internal/xrand"
)

// DefaultMaxLevel is sufficient for the workload sizes used in the paper and
// in this reproduction (2^25 elements need about 25 levels at p = 1/2).
const DefaultMaxLevel = 24

// Node field offsets. A node with L levels occupies headerBytes + 8*L bytes,
// allocated on its own cache line (or lines, for tall towers).
const (
	offLatch   = 0
	offLevel   = 1
	offKey     = 8
	offPayload = 16
	offTower   = 24

	headerBytes = 24
)

// List is a skip list over arena-resident nodes. The head node is a sentinel
// with the maximum number of levels and a key smaller than every real key
// (workload keys start at 1).
type List struct {
	a        *arena.Arena
	head     arena.Addr
	maxLevel int
	level    int // highest level currently in use (1-based)
	count    int

	// predsScratch is InsertRaw's predecessor vector, reused across raw
	// inserts so pre-building a large list does not allocate per key.
	predsScratch []arena.Addr
}

// New returns an empty list with the given maximum tower height.
func New(a *arena.Arena, maxLevel int) *List {
	if maxLevel < 1 {
		maxLevel = 1
	}
	if maxLevel > 64 {
		maxLevel = 64
	}
	l := &List{a: a, maxLevel: maxLevel, level: 1}
	l.head = l.NewNode(0, 0, maxLevel)
	return l
}

// NodeBytes returns the allocation size of a node with the given level.
func NodeBytes(level int) int { return headerBytes + 8*level }

// Head returns the sentinel node's address.
func (l *List) Head() arena.Addr { return l.head }

// MaxLevel returns the maximum tower height.
func (l *List) MaxLevel() int { return l.maxLevel }

// Level returns the highest level currently in use.
func (l *List) Level() int { return l.level }

// Len returns the number of keys stored.
func (l *List) Len() int { return l.count }

// NewNode allocates a node with the given tower height.
func (l *List) NewNode(key, payload uint64, level int) arena.Addr {
	if level < 1 || level > l.maxLevel {
		panic(fmt.Sprintf("skiplist: node level %d out of range [1,%d]", level, l.maxLevel))
	}
	n := l.a.Alloc(NodeBytes(level), memsim.LineSize)
	b := l.a.Bytes(n, headerBytes)
	b[offLevel] = uint8(level)
	binary.LittleEndian.PutUint64(b[offKey:], key)
	binary.LittleEndian.PutUint64(b[offPayload:], payload)
	return n
}

// NodeKey returns the key stored at node n.
func (l *List) NodeKey(n arena.Addr) uint64 { return l.a.ReadU64(n + offKey) }

// NodePayload returns the payload stored at node n.
func (l *List) NodePayload(n arena.Addr) uint64 { return l.a.ReadU64(n + offPayload) }

// setPayload overwrites the payload at node n.
func (l *List) setPayload(n arena.Addr, v uint64) { l.a.WriteU64(n+offPayload, v) }

// nodeLevel returns the tower height of node n.
func (l *List) nodeLevel(n arena.Addr) int { return int(l.a.ReadU8(n + offLevel)) }

// Next returns node n's successor at the given level (0-based), or 0.
func (l *List) Next(n arena.Addr, level int) arena.Addr {
	return l.a.ReadAddr(n + offTower + arena.Addr(8*level))
}

// TowerRef is a zero-copy view of a node's header plus tower levels 0..top,
// aliasing the arena. A descent reads several tower levels of one node; the
// view pays the arena bounds check once for all of them.
type TowerRef []byte

// Tower returns the view of node n covering tower levels up to top
// (0-based). The caller must be standing on n at a level it actually has,
// which guarantees the span lies inside the node's allocation.
func (l *List) Tower(n arena.Addr, top int) TowerRef {
	return TowerRef(l.a.Bytes(n, headerBytes+8*(top+1)))
}

// Prefetch is a host-only hint to pull node n's bytes into the host cache
// (see arena.Arena.Prefetch); it charges no simulated time.
func (l *List) Prefetch(n arena.Addr) { l.a.Prefetch(n) }

// Node returns the header-only view of node n (key and payload; no tower
// levels — TowerRef.Next on it is out of range).
func (l *List) Node(n arena.Addr) TowerRef {
	return TowerRef(l.a.Bytes(n, headerBytes))
}

// Key returns the node's key through the view.
func (t TowerRef) Key() uint64 { return binary.LittleEndian.Uint64(t[offKey:]) }

// Payload returns the node's payload through the view.
func (t TowerRef) Payload() uint64 { return binary.LittleEndian.Uint64(t[offPayload:]) }

// Next returns the successor at the given level through the view.
func (t TowerRef) Next(level int) arena.Addr {
	return arena.Addr(binary.LittleEndian.Uint64(t[offTower+8*level:]))
}

// SetNext updates node n's successor at the given level (0-based).
func (l *List) SetNext(n arena.Addr, level int, next arena.Addr) {
	l.a.WriteAddr(n+offTower+arena.Addr(8*level), next)
}

// TryLatch attempts to acquire node n's latch and reports success.
func (l *List) TryLatch(n arena.Addr) bool {
	if l.a.ReadU8(n+offLatch) != 0 {
		return false
	}
	l.a.WriteU8(n+offLatch, 1)
	return true
}

// Unlatch releases node n's latch.
func (l *List) Unlatch(n arena.Addr) { l.a.WriteU8(n+offLatch, 0) }

// LatchHeld reports whether node n's latch is held.
func (l *List) LatchHeld(n arena.Addr) bool { return l.a.ReadU8(n+offLatch) != 0 }

// RandomLevel draws a tower height with the usual p = 1/2 geometric
// distribution, capped at the list's maximum level.
func (l *List) RandomLevel(rng *xrand.Rand) int {
	level := 1
	for level < l.maxLevel && rng.Uint64()&1 == 0 {
		level++
	}
	return level
}

// RaiseLevel records that a node of the given height now exists.
func (l *List) RaiseLevel(level int) {
	if level > l.level {
		l.level = level
	}
}

// NoteInsert updates bookkeeping after a splice performed by an operator.
func (l *List) NoteInsert(level int) {
	l.count++
	l.RaiseLevel(level)
}

// InsertRaw adds a key without charging simulator time, returning false if
// the key already exists. It is used to pre-build lists for search
// experiments and as the reference for validating engine-driven inserts.
func (l *List) InsertRaw(key, payload uint64, rng *xrand.Rand) bool {
	if l.predsScratch == nil {
		l.predsScratch = make([]arena.Addr, l.maxLevel)
	}
	preds := l.predsScratch
	x := l.head
	xt := l.Tower(x, l.level-1)
	for lvl := l.level - 1; lvl >= 0; lvl-- {
		for {
			next := xt.Next(lvl)
			if next == 0 || l.Node(next).Key() >= key {
				break
			}
			x = next
			xt = l.Tower(x, lvl)
		}
		preds[lvl] = x
	}
	if cand := l.Next(preds[0], 0); cand != 0 && l.NodeKey(cand) == key {
		return false
	}
	level := l.RandomLevel(rng)
	node := l.NewNode(key, payload, level)
	for lvl := 0; lvl < level; lvl++ {
		pred := l.head
		if lvl < l.level {
			pred = preds[lvl]
		}
		l.SetNext(node, lvl, l.Next(pred, lvl))
		l.SetNext(pred, lvl, node)
	}
	l.NoteInsert(level)
	return true
}

// SearchRaw returns the payload for key and whether it was found, without
// charging simulator time.
func (l *List) SearchRaw(key uint64) (uint64, bool) {
	x := l.head
	xt := l.Tower(x, l.level-1)
	for lvl := l.level - 1; lvl >= 0; lvl-- {
		for {
			next := xt.Next(lvl)
			if next == 0 || l.Node(next).Key() >= key {
				break
			}
			x = next
			xt = l.Tower(x, lvl)
		}
	}
	cand := xt.Next(0)
	if cand != 0 {
		if node := l.Node(cand); node.Key() == key {
			return node.Payload(), true
		}
	}
	return 0, false
}

// Keys returns every key in order by walking level 0 (for tests).
func (l *List) Keys() []uint64 {
	var out []uint64
	for n := l.Next(l.head, 0); n != 0; n = l.Next(n, 0) {
		out = append(out, l.NodeKey(n))
	}
	return out
}
