// Package bst implements the canonical binary search tree index used in the
// paper's tree-search workload (Sections 4 and 5.3).
//
// Every node holds an 8-byte key, an 8-byte payload and two 8-byte child
// pointers, and is aligned to its own 64-byte cache line, exactly as in the
// paper's methodology. Nodes live in an arena so that traversals map onto
// simulated memory accesses; no method here charges simulator time.
package bst

import (
	"encoding/binary"

	"amac/internal/arena"
	"amac/internal/memsim"
)

// Node field offsets.
const (
	offKey     = 0
	offPayload = 8
	offLeft    = 16
	offRight   = 24

	// NodeBytes is the allocated size of a node; the paper cache-aligns
	// nodes, so each one occupies its own line.
	NodeBytes = 32
)

// Tree is a binary search tree over arena-resident nodes.
type Tree struct {
	a     *arena.Arena
	root  arena.Addr
	count int
}

// New returns an empty tree whose nodes will be allocated from a.
func New(a *arena.Arena) *Tree { return &Tree{a: a} }

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.count }

// Root returns the address of the root node (0 if the tree is empty).
func (t *Tree) Root() arena.Addr { return t.root }

// NodeRef is a zero-copy view of one node's bytes, aliasing the arena; the
// search stage decodes key and both children from it with a single bounds
// check per node visit.
type NodeRef []byte

// Prefetch is a host-only hint to pull node n's bytes into the host cache
// (see arena.Arena.Prefetch); it charges no simulated time.
func (t *Tree) Prefetch(n arena.Addr) { t.a.Prefetch(n) }

// Node returns the view of the node at n.
func (t *Tree) Node(n arena.Addr) NodeRef { return NodeRef(t.a.Bytes(n, NodeBytes)) }

// Key returns the node's key through the view.
func (n NodeRef) Key() uint64 { return binary.LittleEndian.Uint64(n[offKey:]) }

// Payload returns the node's payload through the view.
func (n NodeRef) Payload() uint64 { return binary.LittleEndian.Uint64(n[offPayload:]) }

// Left returns the left child through the view (0 if none).
func (n NodeRef) Left() arena.Addr {
	return arena.Addr(binary.LittleEndian.Uint64(n[offLeft:]))
}

// Right returns the right child through the view (0 if none).
func (n NodeRef) Right() arena.Addr {
	return arena.Addr(binary.LittleEndian.Uint64(n[offRight:]))
}

// Key returns the key stored at node n.
func (t *Tree) Key(n arena.Addr) uint64 { return t.a.ReadU64(n + offKey) }

// Payload returns the payload stored at node n.
func (t *Tree) Payload(n arena.Addr) uint64 { return t.a.ReadU64(n + offPayload) }

// Left returns the left child of node n (0 if none).
func (t *Tree) Left(n arena.Addr) arena.Addr { return t.a.ReadAddr(n + offLeft) }

// Right returns the right child of node n (0 if none).
func (t *Tree) Right(n arena.Addr) arena.Addr { return t.a.ReadAddr(n + offRight) }

// Child returns the child to follow when searching for key at node n: the
// left child if key is smaller than the node's key, otherwise the right
// child. It mirrors the comparison a search stage performs.
func (t *Tree) Child(n arena.Addr, key uint64) arena.Addr {
	if key < t.Key(n) {
		return t.Left(n)
	}
	return t.Right(n)
}

func (t *Tree) allocNode(key, payload uint64) arena.Addr {
	n := t.a.Alloc(NodeBytes, memsim.LineSize)
	t.a.WriteU64(n+offKey, key)
	t.a.WriteU64(n+offPayload, payload)
	return n
}

// Insert adds a key/payload pair. Duplicate keys go to the right subtree,
// matching the canonical unbalanced implementation the paper evaluates.
// Insert does not charge simulator time; in the experiments the tree is an
// index that exists before the measured search phase.
func (t *Tree) Insert(key, payload uint64) {
	node := t.allocNode(key, payload)
	t.count++
	if t.root == 0 {
		t.root = node
		return
	}
	cur := t.root
	for {
		if key < t.Key(cur) {
			next := t.Left(cur)
			if next == 0 {
				t.a.WriteAddr(cur+offLeft, node)
				return
			}
			cur = next
		} else {
			next := t.Right(cur)
			if next == 0 {
				t.a.WriteAddr(cur+offRight, node)
				return
			}
			cur = next
		}
	}
}

// SearchRaw returns the payload for key and whether it was found, without
// charging simulator time. It is the reference for validating engine-driven
// searches.
func (t *Tree) SearchRaw(key uint64) (uint64, bool) {
	cur := t.root
	for cur != 0 {
		k := t.Key(cur)
		if k == key {
			return t.Payload(cur), true
		}
		if key < k {
			cur = t.Left(cur)
		} else {
			cur = t.Right(cur)
		}
	}
	return 0, false
}

// Depth returns the number of nodes on the path from the root to key
// (inclusive), or 0 if the key is absent. Used by tests and to reason about
// the expected number of memory accesses per lookup.
func (t *Tree) Depth(key uint64) int {
	cur := t.root
	d := 0
	for cur != 0 {
		d++
		k := t.Key(cur)
		if k == key {
			return d
		}
		if key < k {
			cur = t.Left(cur)
		} else {
			cur = t.Right(cur)
		}
	}
	return 0
}

// Height returns the height of the tree (longest root-to-leaf path, in
// nodes). It walks iteratively to avoid deep recursion on skewed trees.
func (t *Tree) Height() int {
	if t.root == 0 {
		return 0
	}
	type item struct {
		n arena.Addr
		d int
	}
	stack := []item{{t.root, 1}}
	max := 0
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if it.d > max {
			max = it.d
		}
		if l := t.Left(it.n); l != 0 {
			stack = append(stack, item{l, it.d + 1})
		}
		if r := t.Right(it.n); r != 0 {
			stack = append(stack, item{r, it.d + 1})
		}
	}
	return max
}

// InOrderKeys returns all keys in sorted order (iteratively, for tests).
func (t *Tree) InOrderKeys() []uint64 {
	var out []uint64
	var stack []arena.Addr
	cur := t.root
	for cur != 0 || len(stack) > 0 {
		for cur != 0 {
			stack = append(stack, cur)
			cur = t.Left(cur)
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, t.Key(cur))
		cur = t.Right(cur)
	}
	return out
}
