package ops

import (
	"amac/internal/arena"
	"amac/internal/bst"
	"amac/internal/exec"
	"amac/internal/memsim"
)

// BSTSearchMachine is the binary-search-tree search operator (fourth column
// of the paper's Table 1): every probe key descends from the root to its
// matching node, one dependent memory access per tree level.
//
//	stage 0: get the next probe tuple and prefetch the root;
//	stage 1: visit the prefetched node, compare keys, emit on a match or
//	         descend to the left/right child.
type BSTSearchMachine struct {
	// Tree is the index being probed.
	Tree *bst.Tree
	// In is the probe relation, materialized in the arena.
	In *Input
	// Out collects matches (an *Output, or a pipeline stage's pipe).
	Out Collector
	// Provision is the stage count GP and SPP provision for; zero derives
	// it from the tree height estimate for a random BST.
	Provision int
}

// BSTState is the per-lookup state of an in-flight tree search.
type BSTState struct {
	idx     int
	key     uint64
	payload uint64
	ptr     arena.Addr
}

// NumLookups implements exec.Machine.
func (m *BSTSearchMachine) NumLookups() int { return m.In.Len() }

// ProvisionedStages implements exec.Machine.
func (m *BSTSearchMachine) ProvisionedStages() int {
	if m.Provision > 0 {
		return m.Provision
	}
	// Expected depth of a random BST is about 2 log2(n); provisioning for
	// the common case (not the tail) is what the paper's Section 5.3 found
	// to perform best for SPP.
	n := m.Tree.Len()
	depth := 1
	for v := 1; v < n; v <<= 1 {
		depth++
	}
	return depth + depth/2
}

// Init implements exec.Machine (code stage 0).
func (m *BSTSearchMachine) Init(c *memsim.Core, s *BSTState, i int) exec.Outcome {
	key, payload := m.In.Read(c, i)
	return m.InitKey(c, s, i, key, payload)
}

// InitKey is stage 0 for a key already in registers: descend from the root.
// Pipeline stages fed by an upstream operator call it directly with the
// streamed-in row.
func (m *BSTSearchMachine) InitKey(c *memsim.Core, s *BSTState, rid int, key, payload uint64) exec.Outcome {
	s.idx = rid
	s.key = key
	s.payload = payload
	s.ptr = m.Tree.Root()
	if s.ptr == 0 {
		return exec.Outcome{Done: true}
	}
	m.Tree.Prefetch(s.ptr)
	return exec.Outcome{NextStage: 1, Prefetch: s.ptr, PrefetchBytes: bst.NodeBytes}
}

// Stage implements exec.Machine (code stage 1: visit a node).
func (m *BSTSearchMachine) Stage(c *memsim.Core, s *BSTState, stage int) exec.Outcome {
	if stage != 1 {
		panic("ops: BSTSearchMachine has a single descending stage")
	}
	c.Load(s.ptr, bst.NodeBytes)
	node := m.Tree.Node(s.ptr)
	c.Instr(CostCompare)
	nodeKey := node.Key()
	if nodeKey == s.key {
		m.Out.Emit(c, s.idx, s.key, node.Payload(), s.payload)
		return exec.Outcome{Done: true}
	}
	c.Instr(CostDescend)
	var child arena.Addr
	if s.key < nodeKey {
		child = node.Left()
	} else {
		child = node.Right()
	}
	if child == 0 {
		return exec.Outcome{Done: true}
	}
	s.ptr = child
	m.Tree.Prefetch(child)
	return exec.Outcome{NextStage: 1, Prefetch: child, PrefetchBytes: bst.NodeBytes}
}
