package ops

import (
	"amac/internal/arena"
	"amac/internal/bst"
	"amac/internal/ht"
	"amac/internal/relation"
	"amac/internal/skiplist"
	"amac/internal/xrand"
)

// TuplesPerBucket is how many build tuples a bucket header is sized for in
// the Balkesen-style join table adopted by the paper: two tuples fit in the
// header node, so the bucket count is |R|/2.
const TuplesPerBucket = ht.TuplesPerNode

// HashJoin bundles everything a hash-join experiment needs: the arena, the
// hash table, and the build and probe relations materialized in the arena.
type HashJoin struct {
	Arena *arena.Arena
	Table *ht.Table
	Build *Input
	Probe *Input
}

// NewHashJoin materializes the workload with the default bucket count
// (|R| / TuplesPerBucket, at least one).
func NewHashJoin(build, probe *relation.Relation) *HashJoin {
	return NewHashJoinWithBuckets(build, probe, build.Len()/TuplesPerBucket)
}

// NewHashJoinWithBuckets materializes the workload with an explicit bucket
// count (the Figure 3 experiments size buckets for exactly four tuples).
func NewHashJoinWithBuckets(build, probe *relation.Relation, buckets int) *HashJoin {
	return NewHashJoinInArena(arena.New(), build, probe, buckets)
}

// NewHashJoinInArena materializes the workload inside an existing arena
// (buckets <= 0 selects the default |R|/TuplesPerBucket sizing). Arenas all
// start at the same simulated base address, so phase-composite workloads
// (exec.Concat) must place every phase's structures in one arena — separate
// arenas would alias in the cache model.
func NewHashJoinInArena(a *arena.Arena, build, probe *relation.Relation, buckets int) *HashJoin {
	if buckets <= 0 {
		buckets = build.Len() / TuplesPerBucket
	}
	return &HashJoin{
		Arena: a,
		Table: ht.New(a, buckets),
		Build: NewInput(a, build),
		Probe: NewInput(a, probe),
	}
}

// PrebuildRaw populates the hash table without charging simulator time, for
// probe-only experiments. It inserts in build order, as a measured build
// phase would, in one pass over the materialized build relation
// (ht.Table.InsertTuplesRaw): the table's bytes and overflow-node addresses
// are those of a plain InsertRaw loop.
func (j *HashJoin) PrebuildRaw() {
	j.Table.InsertTuplesRaw(j.Build.Base(), j.Build.Len())
}

// BuildMachine returns a fresh build-phase machine.
func (j *HashJoin) BuildMachine() *BuildMachine {
	return &BuildMachine{Table: j.Table, In: j.Build}
}

// ProbeMachine returns a fresh probe-phase machine writing to out.
func (j *HashJoin) ProbeMachine(out *Output, earlyExit bool) *ProbeMachine {
	return &ProbeMachine{Table: j.Table, In: j.Probe, Out: out, EarlyExit: earlyExit}
}

// ReferenceJoin computes the expected number of matches and the expected
// output checksum with a plain Go hash map, for validating engine runs.
func (j *HashJoin) ReferenceJoin() (count uint64, checksum uint64) {
	builds := make(map[uint64][]uint64, j.Build.Len())
	for i := 0; i < j.Build.Len(); i++ {
		k, p := j.Build.ReadRaw(i)
		builds[k] = append(builds[k], p)
	}
	for i := 0; i < j.Probe.Len(); i++ {
		k, p := j.Probe.ReadRaw(i)
		for _, bp := range builds[k] {
			count++
			checksum += mix(uint64(i)) ^ mix(k) ^ mix(bp+1) ^ mix(p+2)
		}
	}
	return count, checksum
}

// ReferenceJoinFirstMatch is ReferenceJoin under early-exit semantics: each
// probe contributes at most the first matching tuple in its bucket's chain
// order. The hash table must already be populated (PrebuildRaw or a build
// phase), since chain order — not build input order — determines which match
// an early-exiting probe sees.
func (j *HashJoin) ReferenceJoinFirstMatch() (count uint64, checksum uint64) {
	for i := 0; i < j.Probe.Len(); i++ {
		k, p := j.Probe.ReadRaw(i)
		if matches := j.Table.LookupAllRaw(k); len(matches) > 0 {
			count++
			checksum += mix(uint64(i)) ^ mix(k) ^ mix(matches[0]+1) ^ mix(p+2)
		}
	}
	return count, checksum
}

// GroupBy bundles a group-by workload: the aggregation table and the input
// relation materialized in an arena.
type GroupBy struct {
	Arena *arena.Arena
	Table *ht.AggTable
	In    *Input
}

// NewGroupBy materializes the workload. The table is sized for the expected
// number of distinct groups (one group per bucket header in the uniform
// three-repeats case).
func NewGroupBy(rel *relation.Relation, expectedGroups int) *GroupBy {
	if expectedGroups < 1 {
		expectedGroups = 1
	}
	a := arena.New()
	return &GroupBy{
		Arena: a,
		Table: ht.NewAgg(a, expectedGroups),
		In:    NewInput(a, rel),
	}
}

// Machine returns a fresh group-by machine.
func (g *GroupBy) Machine() *GroupByMachine {
	return &GroupByMachine{Table: g.Table, In: g.In}
}

// ReferenceGroups computes the expected aggregates with plain Go maps.
func (g *GroupBy) ReferenceGroups() map[uint64]ht.Aggregates {
	ref := make(map[uint64]ht.Aggregates)
	for i := 0; i < g.In.Len(); i++ {
		k, p := g.In.ReadRaw(i)
		agg, ok := ref[k]
		if !ok {
			agg = ht.Aggregates{Key: k, Min: p, Max: p}
		}
		agg.Count++
		agg.Sum += p
		agg.SumSq += p * p
		if p < agg.Min {
			agg.Min = p
		}
		if p > agg.Max {
			agg.Max = p
		}
		ref[k] = agg
	}
	return ref
}

// BSTWorkload bundles a tree-search workload: the tree built from the build
// relation and the probe relation materialized in an arena.
type BSTWorkload struct {
	Arena *arena.Arena
	Tree  *bst.Tree
	Probe *Input
}

// NewBSTWorkload builds the index (uncharged, as in the paper the index
// exists before the measured search phase) and materializes the probes.
func NewBSTWorkload(build, probe *relation.Relation) *BSTWorkload {
	return NewBSTWorkloadInArena(arena.New(), build, probe)
}

// NewBSTWorkloadInArena builds the workload inside an existing arena (see
// NewHashJoinInArena for why composite workloads need one arena).
func NewBSTWorkloadInArena(a *arena.Arena, build, probe *relation.Relation) *BSTWorkload {
	w := &BSTWorkload{Arena: a, Tree: bst.New(a), Probe: NewInput(a, probe)}
	for _, tup := range build.Tuples {
		w.Tree.Insert(tup.Key, tup.Payload)
	}
	return w
}

// SearchMachine returns a fresh tree-search machine writing to out.
func (w *BSTWorkload) SearchMachine(out *Output) *BSTSearchMachine {
	return &BSTSearchMachine{Tree: w.Tree, In: w.Probe, Out: out}
}

// SkipListWorkload bundles the skip list workloads: an input relation for
// inserts and a probe relation for searches, plus the list itself.
type SkipListWorkload struct {
	Arena *arena.Arena
	List  *skiplist.List
	Build *Input
	Probe *Input
}

// NewSkipListWorkload materializes both relations; the list starts empty.
func NewSkipListWorkload(build, probe *relation.Relation) *SkipListWorkload {
	return NewSkipListWorkloadInArena(arena.New(), build, probe)
}

// NewSkipListWorkloadInArena materializes the workload inside an existing
// arena (see NewHashJoinInArena for why composite workloads need one arena).
func NewSkipListWorkloadInArena(a *arena.Arena, build, probe *relation.Relation) *SkipListWorkload {
	return &SkipListWorkload{
		Arena: a,
		List:  skiplist.New(a, skiplist.DefaultMaxLevel),
		Build: NewInput(a, build),
		Probe: NewInput(a, probe),
	}
}

// PrebuildRaw populates the list without charging simulator time, for
// search-only experiments.
func (w *SkipListWorkload) PrebuildRaw(seed uint64) {
	rng := xrand.New(seed)
	for i := 0; i < w.Build.Len(); i++ {
		key, payload := w.Build.ReadRaw(i)
		w.List.InsertRaw(key, payload, rng)
	}
}

// InsertMachine returns a fresh insert machine over the build relation.
func (w *SkipListWorkload) InsertMachine(seed uint64) *SkipListInsertMachine {
	return NewSkipListInsertMachine(w.List, w.Build, seed)
}

// SearchMachine returns a fresh search machine over the probe relation.
func (w *SkipListWorkload) SearchMachine(out *Output) *SkipListSearchMachine {
	return &SkipListSearchMachine{List: w.List, In: w.Probe, Out: out}
}
