package ops

import (
	"amac/internal/arena"
	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/skiplist"
	"amac/internal/xrand"
)

// slNodeSpan is the span prefetched/loaded per skip list node visit: the
// header plus the first few tower levels fit in one cache line; taller
// towers span more lines but are rare and their upper levels are touched
// only near the head, which stays cached.
const slNodeSpan = memsim.LineSize

// SkipListSearchMachine is the skip list search operator: every probe key
// descends the tower levels of a Pugh skip list, advancing right while the
// next key is smaller and dropping a level otherwise. The number of node
// visits per level is arbitrary — the irregularity that, per Section 5.4,
// hurts the statically scheduled techniques.
type SkipListSearchMachine struct {
	// List is the index being probed.
	List *skiplist.List
	// In is the probe relation, materialized in the arena.
	In *Input
	// Out collects matches (an *Output, or a pipeline stage's pipe).
	Out Collector
	// Provision is the stage count GP and SPP provision for; zero derives
	// an estimate from the list size.
	Provision int
}

// SkipListSearchState is the per-lookup state of an in-flight search.
type SkipListSearchState struct {
	idx     int
	key     uint64
	payload uint64
	x       arena.Addr // node we stand on (already visited)
	cand    arena.Addr // prefetched successor being examined
	lvl     int
}

// NumLookups implements exec.Machine.
func (m *SkipListSearchMachine) NumLookups() int { return m.In.Len() }

// ProvisionedStages implements exec.Machine.
func (m *SkipListSearchMachine) ProvisionedStages() int {
	if m.Provision > 0 {
		return m.Provision
	}
	return expectedSkipHops(m.List.Len()) + 1
}

// expectedSkipHops estimates the node visits of an average search: about
// 1.5 per level with log2(n) levels.
func expectedSkipHops(n int) int {
	levels := 1
	for v := 1; v < n; v <<= 1 {
		levels++
	}
	return levels + levels/2
}

// Init implements exec.Machine (code stage 0): position at the highest head
// successor, as in Table 1.
func (m *SkipListSearchMachine) Init(c *memsim.Core, s *SkipListSearchState, i int) exec.Outcome {
	key, payload := m.In.Read(c, i)
	return m.InitKey(c, s, i, key, payload)
}

// InitKey is stage 0 for a key already in registers: position at the highest
// head successor. Pipeline stages fed by an upstream operator call it
// directly with the streamed-in row.
func (m *SkipListSearchMachine) InitKey(c *memsim.Core, s *SkipListSearchState, rid int, key, payload uint64) exec.Outcome {
	s.idx = rid
	s.key = key
	s.payload = payload
	s.x = m.List.Head()
	s.lvl = m.List.Level() - 1
	c.Load(s.x, slNodeSpan)
	out, _ := m.descend(c, s)
	return out
}

// descend scans x's (resident) tower downward from s.lvl until it finds a
// non-nil successor to examine, returning its outcome. The boolean result
// reports whether a candidate was found.
func (m *SkipListSearchMachine) descend(c *memsim.Core, s *SkipListSearchState) (exec.Outcome, bool) {
	tower := m.List.Tower(s.x, s.lvl)
	for {
		c.Instr(CostDescend)
		cand := tower.Next(s.lvl)
		if cand != 0 {
			s.cand = cand
			m.List.Prefetch(cand)
			return exec.Outcome{NextStage: 1, Prefetch: cand, PrefetchBytes: slNodeSpan}, true
		}
		if s.lvl == 0 {
			// Ran off the end of the list without a match.
			return exec.Outcome{Done: true}, false
		}
		s.lvl--
	}
}

// Stage implements exec.Machine (code stage 1: examine the prefetched
// candidate node).
func (m *SkipListSearchMachine) Stage(c *memsim.Core, s *SkipListSearchState, stage int) exec.Outcome {
	if stage != 1 {
		panic("ops: SkipListSearchMachine has a single traversal stage")
	}
	c.Load(s.cand, slNodeSpan)
	node := m.List.Node(s.cand)
	c.Instr(CostCompare)
	ck := node.Key()
	switch {
	case ck == s.key:
		m.Out.Emit(c, s.idx, s.key, node.Payload(), s.payload)
		return exec.Outcome{Done: true}
	case ck < s.key:
		// Advance along the current level.
		s.x = s.cand
	default:
		// Overshot: drop a level.
		if s.lvl == 0 {
			return exec.Outcome{Done: true} // no match
		}
		s.lvl--
	}
	out, _ := m.descend(c, s)
	return out
}

// SkipListInsertMachine is the skip list insert operator (fifth column of
// the paper's Table 1): a search phase that collects the predecessor node at
// every level, followed by a splice phase that draws a random tower height,
// allocates the node, validates and latches the predecessors, and links the
// new node in. The predecessor vector lives in the per-lookup state, which
// is why the paper notes AMAC's state entries for this operator are large
// (about half a kilobyte).
type SkipListInsertMachine struct {
	// List is the skip list being built.
	List *skiplist.List
	// In is the input relation, materialized in the arena.
	In *Input
	// Levels fixes the tower height per input index so that all techniques
	// build structurally identical lists; NewSkipListInsertMachine fills it.
	Levels []int
	// Provision is the stage count GP and SPP provision for.
	Provision int

	// Inserted counts successful inserts; duplicates are skipped.
	Inserted int
	// Restarts counts splices that had to re-run the search because a
	// concurrent in-flight insert invalidated their predecessors.
	Restarts int

	// predsPool recycles predecessor vectors: a lookup takes one at Init and
	// returns it when it completes, so a run allocates O(in-flight) vectors
	// instead of one per input tuple. Safe because a lookup reaches Done
	// exactly once, and an engine that copied a state (the SPP bail-out path)
	// drives exactly one of the copies to completion while the abandoned
	// alias is overwritten by the next Init.
	predsPool [][]arena.Addr
	// scratch is the splice stage's latch-acquisition list; its lifetime is
	// a single spliceStage call, so one buffer serves every lookup.
	scratch []arena.Addr
}

// NewSkipListInsertMachine prepares an insert machine over the input,
// pre-drawing every lookup's tower height from the given seed.
func NewSkipListInsertMachine(list *skiplist.List, in *Input, seed uint64) *SkipListInsertMachine {
	rng := xrand.New(seed)
	levels := make([]int, in.Len())
	for i := range levels {
		levels[i] = list.RandomLevel(rng)
	}
	return &SkipListInsertMachine{List: list, In: in, Levels: levels}
}

// SkipListInsertState is the per-lookup state of an in-flight insert.
type SkipListInsertState struct {
	idx     int
	key     uint64
	payload uint64
	x       arena.Addr
	cand    arena.Addr
	lvl     int
	preds   []arena.Addr // predecessor per level, head above the search level
}

// NumLookups implements exec.Machine.
func (m *SkipListInsertMachine) NumLookups() int { return m.In.Len() }

// ProvisionedStages implements exec.Machine.
func (m *SkipListInsertMachine) ProvisionedStages() int {
	if m.Provision > 0 {
		return m.Provision
	}
	return expectedSkipHops(m.In.Len()) + 2
}

// Init implements exec.Machine (code stage 0).
func (m *SkipListInsertMachine) Init(c *memsim.Core, s *SkipListInsertState, i int) exec.Outcome {
	key, payload := m.In.Read(c, i)
	s.idx = i
	s.key = key
	s.payload = payload
	// A vector not shared with any live lookup: engines may copy states when
	// bailing lookups out, so vectors are handed out by the pool and only
	// returned when their lookup completes.
	s.preds = m.takePreds()
	m.restartSearch(c, s)
	out, _ := m.descend(c, s)
	return out
}

// takePreds pops a predecessor vector from the pool or allocates one.
// restartSearch overwrites every element, so recycled content is never read.
func (m *SkipListInsertMachine) takePreds() []arena.Addr {
	if n := len(m.predsPool); n > 0 {
		p := m.predsPool[n-1]
		m.predsPool = m.predsPool[:n-1]
		return p
	}
	return make([]arena.Addr, m.List.MaxLevel())
}

// putPreds returns a completed lookup's predecessor vector to the pool.
func (m *SkipListInsertMachine) putPreds(s *SkipListInsertState) {
	if s.preds != nil {
		m.predsPool = append(m.predsPool, s.preds)
		s.preds = nil
	}
}

// restartSearch positions the lookup at the head, as on entry and after a
// validation failure.
func (m *SkipListInsertMachine) restartSearch(c *memsim.Core, s *SkipListInsertState) {
	s.x = m.List.Head()
	s.lvl = m.List.Level() - 1
	for l := range s.preds {
		s.preds[l] = m.List.Head()
	}
	c.Load(s.x, slNodeSpan)
}

// descend is the insert-side variant of the search descent: it records the
// predecessor at every level it leaves, and when the bottom level has been
// fully resolved it proceeds to the splice stage instead of terminating.
func (m *SkipListInsertMachine) descend(c *memsim.Core, s *SkipListInsertState) (exec.Outcome, bool) {
	tower := m.List.Tower(s.x, s.lvl)
	for {
		c.Instr(CostDescend)
		cand := tower.Next(s.lvl)
		if cand != 0 {
			s.cand = cand
			m.List.Prefetch(cand)
			return exec.Outcome{NextStage: 1, Prefetch: cand, PrefetchBytes: slNodeSpan}, true
		}
		s.preds[s.lvl] = s.x
		if s.lvl == 0 {
			s.cand = 0
			return exec.Outcome{NextStage: 2}, false
		}
		s.lvl--
	}
}

// Stage implements exec.Machine: stage 1 is the predecessor search, stage 2
// the splice.
func (m *SkipListInsertMachine) Stage(c *memsim.Core, s *SkipListInsertState, stage int) exec.Outcome {
	switch stage {
	case 1:
		return m.searchStage(c, s)
	case 2:
		return m.spliceStage(c, s)
	default:
		panic("ops: SkipListInsertMachine has stages 1 and 2 only")
	}
}

func (m *SkipListInsertMachine) searchStage(c *memsim.Core, s *SkipListInsertState) exec.Outcome {
	c.Load(s.cand, slNodeSpan)
	c.Instr(CostCompare)
	ck := m.List.Node(s.cand).Key()
	switch {
	case ck == s.key:
		// Key already present: nothing to insert.
		m.putPreds(s)
		return exec.Outcome{Done: true}
	case ck < s.key:
		s.x = s.cand
	default:
		s.preds[s.lvl] = s.x
		if s.lvl == 0 {
			return exec.Outcome{NextStage: 2}
		}
		s.lvl--
	}
	out, _ := m.descend(c, s)
	return out
}

func (m *SkipListInsertMachine) spliceStage(c *memsim.Core, s *SkipListInsertState) exec.Outcome {
	list := m.List
	c.Instr(CostRandomLevel)
	level := m.Levels[s.idx]

	// Validate the predecessors and acquire their latches, lowest level
	// first. If another in-flight insert has spliced a node between a
	// predecessor and our key, the collected vector is stale and the search
	// must be re-run (the concurrent list's retry path).
	acquired := m.scratch[:0]
	release := func() {
		for _, p := range acquired {
			c.Instr(CostLatchRelease)
			list.Unlatch(p)
		}
		m.scratch = acquired[:0]
	}
	for l := 0; l < level; l++ {
		pred := s.preds[l]
		c.Load(pred, slNodeSpan)
		c.Instr(CostValidate)
		succ := list.Next(pred, l)
		if succ != 0 {
			c.Load(succ, 16)
			sk := list.NodeKey(succ)
			if sk == s.key {
				release()
				m.putPreds(s)
				return exec.Outcome{Done: true}
			}
			if sk < s.key {
				// Stale predecessor: restart the whole search.
				release()
				m.Restarts++
				m.restartSearch(c, s)
				out, _ := m.descend(c, s)
				return out
			}
		}
		if latched(acquired, pred) {
			continue
		}
		c.Instr(CostLatchAcquire)
		if !list.TryLatch(pred) {
			release()
			return exec.Outcome{NextStage: 2, Retry: true}
		}
		acquired = append(acquired, pred)
	}

	c.Instr(CostAllocNode)
	node := list.NewNode(s.key, s.payload, level)
	c.Store(node, skiplist.NodeBytes(level))
	for l := 0; l < level; l++ {
		c.Instr(CostSpliceLevel)
		pred := s.preds[l]
		list.SetNext(node, l, list.Next(pred, l))
		list.SetNext(pred, l, node)
		c.Store(pred, 8)
	}
	release()
	list.NoteInsert(level)
	m.Inserted++
	m.putPreds(s)
	return exec.Outcome{Done: true}
}

// latched reports whether p is already in the acquired set.
func latched(acquired []arena.Addr, p arena.Addr) bool {
	for _, a := range acquired {
		if a == p {
			return true
		}
	}
	return false
}
