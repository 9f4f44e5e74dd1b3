package ops

import (
	"amac/internal/arena"
	"amac/internal/exec"
	"amac/internal/ht"
	"amac/internal/memsim"
)

// GroupByMachine is the group-by operator with immediate aggregation (third
// column of the paper's Table 1): every input tuple locates (or creates) its
// group's node in the aggregation hash table and folds its payload into the
// six aggregate functions.
//
//	stage 0: get the next input tuple, hash, compute and prefetch the bucket;
//	stage 1: acquire the bucket latch (retry if held by another in-flight
//	         lookup); on a key match move to the aggregate-update stage, on
//	         an empty node claim it, otherwise follow or extend the chain;
//	stage 2: visit an overflow node with the latch held;
//	stage 3: apply the aggregate functions and release the latch.
//
// As in the paper, the latch is acquired in stage 1 but only released after
// the update in stage 3, so lookups for the same (hot) key conflict with
// each other inside a single thread. GP and SPP must serialize those
// conflicting lookups; AMAC simply retries them on a later pass of its
// circular buffer.
type GroupByMachine struct {
	// Table is the aggregation hash table.
	Table *ht.AggTable
	// In is the input relation, materialized in the arena.
	In *Input
	// Provision is the stage count GP and SPP provision for (default 3:
	// init, one node visit, aggregate update).
	Provision int
}

// GroupByState is the per-lookup state of an in-flight group-by update.
type GroupByState struct {
	idx     int
	key     uint64
	payload uint64
	bucket  arena.Addr // bucket header, owner of the latch
	ptr     arena.Addr // node currently being examined
}

// NumLookups implements exec.Machine.
func (m *GroupByMachine) NumLookups() int { return m.In.Len() }

// ProvisionedStages implements exec.Machine.
func (m *GroupByMachine) ProvisionedStages() int {
	if m.Provision > 0 {
		return m.Provision
	}
	return 3
}

// Init implements exec.Machine (code stage 0).
func (m *GroupByMachine) Init(c *memsim.Core, s *GroupByState, i int) exec.Outcome {
	key, payload := m.In.Read(c, i)
	return m.InitKey(c, s, i, key, payload)
}

// InitKey is stage 0 for a group key already in registers: hash, compute and
// prefetch the bucket. A pipeline aggregation stage fed by an upstream join
// calls it directly with the streamed-in row.
func (m *GroupByMachine) InitKey(c *memsim.Core, s *GroupByState, rid int, key, payload uint64) exec.Outcome {
	c.Instr(CostHash)
	bucket := m.Table.BucketAddr(m.Table.Hash(key))
	s.idx = rid
	s.key = key
	s.payload = payload
	s.bucket = bucket
	s.ptr = bucket
	m.Table.Prefetch(bucket)
	return exec.Outcome{NextStage: 1, Prefetch: bucket, PrefetchBytes: ht.NodeBytes}
}

// Stage implements exec.Machine.
func (m *GroupByMachine) Stage(c *memsim.Core, s *GroupByState, stage int) exec.Outcome {
	switch stage {
	case 1:
		c.Load(s.ptr, ht.NodeBytes)
		c.Instr(CostLatchAcquire)
		if !m.Table.TryLatch(s.bucket) {
			return exec.Outcome{NextStage: 1, Retry: true}
		}
		return m.matchOrAdvance(c, s)
	case 2:
		c.Load(s.ptr, ht.NodeBytes)
		return m.matchOrAdvance(c, s)
	case 3:
		// Aggregate update: the node is already resident from the stage
		// that found the match; the latch has been held since stage 1.
		c.Load(s.ptr, ht.NodeBytes)
		c.Instr(CostAggUpdate)
		m.Table.UpdateGroup(s.ptr, s.payload)
		c.Store(s.ptr, ht.NodeBytes)
		c.Instr(CostLatchRelease)
		m.Table.Unlatch(s.bucket)
		return exec.Outcome{Done: true}
	default:
		panic("ops: GroupByMachine has stages 1..3 only")
	}
}

// matchOrAdvance inspects the current node with the latch held: claim it if
// empty, move to the aggregate-update stage on a key match, follow the chain
// otherwise, extending it when the key is new.
func (m *GroupByMachine) matchOrAdvance(c *memsim.Core, s *GroupByState) exec.Outcome {
	node := m.Table.Node(s.ptr)
	if !node.Used() {
		c.Instr(CostInsertTuple)
		m.Table.InitGroup(s.ptr, s.key, s.payload)
		c.Store(s.ptr, ht.NodeBytes)
		c.Instr(CostLatchRelease)
		m.Table.Unlatch(s.bucket)
		return exec.Outcome{Done: true}
	}
	c.Instr(CostCompare)
	if node.Key() == s.key {
		// The aggregate fields live in the node just loaded; the update is
		// a separate code stage (as in Table 1), executed with the latch
		// still held.
		return exec.Outcome{NextStage: 3}
	}
	next := node.Next()
	c.Instr(1)
	if next == 0 {
		c.Instr(CostAllocNode)
		node := m.Table.AllocNode()
		m.Table.SetNodeNext(s.ptr, node)
		c.Store(s.ptr, ht.NodeBytes)
		c.Instr(CostInsertTuple)
		m.Table.InitGroup(node, s.key, s.payload)
		c.Store(node, ht.NodeBytes)
		c.Instr(CostLatchRelease)
		m.Table.Unlatch(s.bucket)
		return exec.Outcome{Done: true}
	}
	s.ptr = next
	m.Table.Prefetch(next)
	return exec.Outcome{NextStage: 2, Prefetch: next, PrefetchBytes: ht.NodeBytes}
}
