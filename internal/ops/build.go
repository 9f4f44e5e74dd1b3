package ops

import (
	"amac/internal/arena"
	"amac/internal/exec"
	"amac/internal/ht"
	"amac/internal/memsim"
)

// BuildMachine is the hash join build operator (second column of the paper's
// Table 1): every input tuple is inserted into the chained hash table under
// the bucket's latch, using the reference implementation's constant-time
// scheme (try the header, then the first overflow node, otherwise splice in
// a fresh node behind the header — at most two node visits per insert, which
// is why the build phase is insensitive to skew).
//
//	stage 0: get the next build tuple, hash, compute and prefetch the bucket;
//	stage 1: acquire the bucket latch (retry if another in-flight lookup
//	         holds it), insert into the header if it has room, extend the
//	         chain if there is no overflow node yet, otherwise prefetch the
//	         first overflow node;
//	stage 2: visit the first overflow node (latch still held), insert there
//	         or splice in a fresh node.
//
// The latch is held from stage 1 until the tuple is inserted, so concurrent
// in-flight insertions into the same bucket serialize against each other,
// which is precisely the read/write dependency the paper discusses in
// Section 3.2.
type BuildMachine struct {
	// Table is the hash table being built.
	Table *ht.Table
	// In is the build relation R, materialized in the arena.
	In *Input
	// Provision is the stage count GP and SPP provision for (default 2).
	Provision int
}

// BuildState is the per-lookup state of an in-flight insertion.
type BuildState struct {
	idx     int
	key     uint64
	payload uint64
	bucket  arena.Addr // bucket header, owner of the latch
	ptr     arena.Addr // node currently being examined
}

// NumLookups implements exec.Machine.
func (m *BuildMachine) NumLookups() int { return m.In.Len() }

// ProvisionedStages implements exec.Machine.
func (m *BuildMachine) ProvisionedStages() int {
	if m.Provision > 0 {
		return m.Provision
	}
	return 2
}

// Init implements exec.Machine (code stage 0).
func (m *BuildMachine) Init(c *memsim.Core, s *BuildState, i int) exec.Outcome {
	key, payload := m.In.Read(c, i)
	c.Instr(CostHash)
	bucket := m.Table.BucketAddr(m.Table.Hash(key))
	s.idx = i
	s.key = key
	s.payload = payload
	s.bucket = bucket
	s.ptr = bucket
	m.Table.Prefetch(bucket)
	return exec.Outcome{NextStage: 1, Prefetch: bucket, PrefetchBytes: ht.NodeBytes}
}

// Stage implements exec.Machine.
func (m *BuildMachine) Stage(c *memsim.Core, s *BuildState, stage int) exec.Outcome {
	switch stage {
	case 1:
		c.Load(s.ptr, ht.NodeBytes)
		c.Instr(CostLatchAcquire)
		if !m.Table.TryLatch(s.bucket) {
			return exec.Outcome{NextStage: 1, Retry: true}
		}
		return m.insertOrAdvance(c, s, 2)
	case 2:
		c.Load(s.ptr, ht.NodeBytes)
		return m.insertOrAdvance(c, s, 2)
	default:
		panic("ops: BuildMachine has stages 1 and 2 only")
	}
}

// insertOrAdvance inserts the tuple into the current node if it has room,
// splices a fresh node behind the bucket header if the constant-time probe
// of header and first overflow node found no room, or (from the header only)
// advances to the first overflow node while keeping the bucket latch held.
func (m *BuildMachine) insertOrAdvance(c *memsim.Core, s *BuildState, walkStage int) exec.Outcome {
	ref := m.Table.Node(s.ptr)
	if ref.Count() < ht.TuplesPerNode {
		c.Instr(CostInsertTuple)
		m.Table.AppendTuple(s.ptr, s.key, s.payload)
		c.Store(s.ptr, ht.NodeBytes)
		c.Instr(CostLatchRelease)
		m.Table.Unlatch(s.bucket)
		return exec.Outcome{Done: true}
	}
	next := ref.Next()
	c.Instr(1)
	if s.ptr == s.bucket && next != 0 {
		// The header is full: examine the first overflow node.
		s.ptr = next
		m.Table.Prefetch(next)
		return exec.Outcome{NextStage: walkStage, Prefetch: next, PrefetchBytes: ht.NodeBytes}
	}
	// Both the header and (if present) the first overflow node are full:
	// splice a fresh node in right behind the header.
	old := m.Table.NodeNext(s.bucket)
	c.Instr(CostAllocNode)
	node := m.Table.AllocNode()
	m.Table.SetNodeNext(node, old)
	m.Table.SetNodeNext(s.bucket, node)
	c.Store(s.bucket, ht.NodeBytes)
	c.Instr(CostInsertTuple)
	m.Table.AppendTuple(node, s.key, s.payload)
	c.Store(node, ht.NodeBytes)
	c.Instr(CostLatchRelease)
	m.Table.Unlatch(s.bucket)
	return exec.Outcome{Done: true}
}
