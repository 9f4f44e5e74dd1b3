package ops

import (
	"amac/internal/arena"
	"amac/internal/exec"
	"amac/internal/ht"
	"amac/internal/memsim"
)

// ProbeMachine is the hash join probe operator expressed as code stages
// (the first column of the paper's Table 1 and the pseudo-code of Listing 1):
//
//	stage 0: get the next probe tuple, hash its key, compute the bucket
//	         address, prefetch the bucket;
//	stage 1: visit the prefetched node, compare keys, emit matches, and
//	         either terminate or chase the overflow pointer.
type ProbeMachine struct {
	// Table is the hash table built from the R relation.
	Table *ht.Table
	// In is the probe relation S, materialized in the arena.
	In *Input
	// Out collects matches (an *Output, or a pipeline stage's pipe).
	Out Collector
	// EarlyExit terminates a lookup at its first match (valid when the
	// build keys are unique); without it the whole chain is scanned, as
	// required for non-unique build keys.
	EarlyExit bool
	// Provision is the stage count GP and SPP provision for; zero selects
	// two (stage 0 plus one node visit), the common case for the
	// Balkesen-style table where a bucket holds two tuples in its header.
	Provision int
	// Limit restricts the probe to the first Limit input tuples (zero means
	// all). Multi-thread experiments use it to give the simulated
	// representative thread its partition of the probe relation.
	Limit int
	// RIDs optionally maps local lookup indices to global row ids: when set,
	// lookup i carries RIDs[i] instead of i through its state. The
	// partitioned parallel join uses it so that the workers' merged output
	// (count, checksum, output slots) is identical to an unpartitioned run
	// over the same relations.
	RIDs []int
}

// ProbeState is the paper's per-lookup state (Figure 4): row id, key,
// payload, current node pointer. The engine tracks the stage field.
type ProbeState struct {
	idx     int
	key     uint64
	payload uint64
	ptr     arena.Addr
}

// NumLookups implements exec.Machine.
func (m *ProbeMachine) NumLookups() int {
	if m.Limit > 0 && m.Limit < m.In.Len() {
		return m.Limit
	}
	return m.In.Len()
}

// ProvisionedStages implements exec.Machine.
func (m *ProbeMachine) ProvisionedStages() int {
	if m.Provision > 0 {
		return m.Provision
	}
	return 2
}

// Init implements exec.Machine (code stage 0).
func (m *ProbeMachine) Init(c *memsim.Core, s *ProbeState, i int) exec.Outcome {
	key, payload := m.In.Read(c, i)
	rid := i
	if m.RIDs != nil {
		rid = m.RIDs[i]
	}
	return m.InitKey(c, s, rid, key, payload)
}

// InitKey is stage 0 for a key already in registers: hash, compute and
// prefetch the bucket. Init reads the materialized input and delegates here;
// a pipeline stage fed by an upstream operator calls it directly with the
// streamed-in row, so no input relation exists at all.
func (m *ProbeMachine) InitKey(c *memsim.Core, s *ProbeState, rid int, key, payload uint64) exec.Outcome {
	c.Instr(CostHash)
	bucket := m.Table.BucketAddr(m.Table.Hash(key))
	s.idx = rid
	s.key = key
	s.payload = payload
	s.ptr = bucket
	m.Table.Prefetch(bucket)
	return exec.Outcome{NextStage: 1, Prefetch: bucket, PrefetchBytes: ht.NodeBytes}
}

// Stage implements exec.Machine (code stage 1: visit a node).
func (m *ProbeMachine) Stage(c *memsim.Core, s *ProbeState, stage int) exec.Outcome {
	if stage != 1 {
		panic("ops: ProbeMachine has a single chasing stage")
	}
	c.Load(s.ptr, ht.NodeBytes)
	node := m.Table.Node(s.ptr)
	cnt := node.Count()
	for slot := 0; slot < cnt; slot++ {
		c.Instr(CostCompare)
		if node.Key(slot) == s.key {
			m.Out.Emit(c, s.idx, s.key, node.Payload(slot), s.payload)
			if m.EarlyExit {
				return exec.Outcome{Done: true}
			}
		}
	}
	next := node.Next()
	c.Instr(1)
	if next == 0 {
		return exec.Outcome{Done: true}
	}
	s.ptr = next
	m.Table.Prefetch(next)
	return exec.Outcome{NextStage: 1, Prefetch: next, PrefetchBytes: ht.NodeBytes}
}
