package amac

import (
	"amac/internal/ht"
	"amac/internal/ops"
	"amac/internal/relation"
)

// Tuple is the 16-byte columnar tuple (8-byte key, 8-byte payload) used by
// every workload in the paper.
type Tuple = relation.Tuple

// Relation is an in-memory column of tuples.
type Relation = relation.Relation

// JoinSpec describes a hash-join workload: build and probe sizes and the
// Zipf skew of each relation's keys (the paper's [Z_R, Z_S]).
type JoinSpec = relation.JoinSpec

// BuildJoin generates the build (R) and probe (S) relations for a hash join.
func BuildJoin(spec JoinSpec) (build, probe *Relation, err error) {
	return relation.BuildJoin(spec)
}

// GroupBySpec describes a group-by workload.
type GroupBySpec = relation.GroupBySpec

// BuildGroupBy generates a group-by input relation.
func BuildGroupBy(spec GroupBySpec) (*Relation, error) { return relation.BuildGroupBy(spec) }

// BuildIndexWorkload generates the unique-key build relation and matching
// probe relation used by the tree and skip list workloads.
func BuildIndexWorkload(n int, seed uint64) (build, probe *Relation, err error) {
	return relation.BuildIndexWorkload(n, seed)
}

// ZipfKeys returns n keys drawn from a Zipf(theta) popularity distribution
// over [1, domain], hot ranks scattered through the key space by a
// seed-deterministic permutation (numeric adjacency would give hot keys
// artificial cache locality). theta 0 is uniform. It is the reusable
// generator behind every skewed workload here: the adaptN experiment's
// hot-then-cold probe phases draw from it, and examples/hashjoin_skew uses
// it for probe-side skew.
func ZipfKeys(n int, domain uint64, theta float64, seed uint64) []uint64 {
	return relation.ZipfKeys(n, domain, theta, seed)
}

// KeyedRelation builds a relation from explicit keys (for example a
// ZipfKeys draw), with payloads payloadBase+i so every tuple stays
// distinguishable in checksums.
func KeyedRelation(name string, keys []uint64, payloadBase uint64) *Relation {
	return relation.KeyedRelation(name, keys, payloadBase)
}

// HashJoin is a hash-join workload materialized in a simulated arena: the
// chained hash table plus the build and probe relations. Its machines run
// under any Technique.
type HashJoin = ops.HashJoin

// NewHashJoin materializes a join workload with the reference bucket sizing
// (two tuples per bucket header).
func NewHashJoin(build, probe *Relation) *HashJoin { return ops.NewHashJoin(build, probe) }

// PartitionedHashJoin is a hash join split into independent per-worker
// workloads (private arena, table and relations each) so the parallel
// execution layer's workers never share a table. Probe machines created
// through it carry global row ids, so the workers' merged output matches an
// unpartitioned run.
type PartitionedHashJoin = ops.PartitionedHashJoin

// PartitionJoin hash-partitions the build and probe relations into parts
// independent workloads; equal keys always land in the same partition.
func PartitionJoin(build, probe *Relation, parts int) *PartitionedHashJoin {
	return ops.PartitionJoin(build, probe, parts)
}

// GroupBy is a group-by workload materialized in a simulated arena.
type GroupBy = ops.GroupBy

// NewGroupBy materializes a group-by workload sized for the expected number
// of distinct groups.
func NewGroupBy(rel *Relation, expectedGroups int) *GroupBy {
	return ops.NewGroupBy(rel, expectedGroups)
}

// Aggregates is the materialized result of one group-by group (count, sum,
// sum of squares, min, max; Avg is derived).
type Aggregates = ht.Aggregates

// BSTWorkload is a binary-search-tree search workload.
type BSTWorkload = ops.BSTWorkload

// NewBSTWorkload builds the tree index and materializes the probes.
func NewBSTWorkload(build, probe *Relation) *BSTWorkload { return ops.NewBSTWorkload(build, probe) }

// SkipListWorkload is a skip list search/insert workload.
type SkipListWorkload = ops.SkipListWorkload

// NewSkipListWorkload materializes the relations for skip list experiments.
func NewSkipListWorkload(build, probe *Relation) *SkipListWorkload {
	return ops.NewSkipListWorkload(build, probe)
}

// Output collects materialized operator results and charges their stores.
type Output = ops.Output

// NewOutput creates a result collector in the given arena; keep retains the
// individual rows for inspection (tests, examples) in addition to the count
// and checksum.
func NewOutput(a *Arena, keep bool) *Output { return ops.NewOutput(a, keep) }

// ProbeMachine is the hash join probe operator, an implementation of
// Machine.
type ProbeMachine = ops.ProbeMachine

// Per-lookup state types of the built-in machines, exported so the generic
// entry points can be instantiated explicitly, e.g.
// ServiceWorker[ProbeState]{...}.
type (
	// ProbeState is ProbeMachine's per-lookup state.
	ProbeState = ops.ProbeState
	// GroupByState is the group-by machine's per-lookup state.
	GroupByState = ops.GroupByState
)
