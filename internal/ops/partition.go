package ops

import (
	"runtime"
	"sync"
	"sync/atomic"

	"amac/internal/relation"
)

// PartitionedHashJoin hash-partitions a join workload into P independent
// HashJoin sub-workloads, one per worker of the parallel execution layer.
// Equal keys always land in the same partition, so each worker probes (and,
// if measured, builds) a table that no other worker ever touches — the
// cross-core scaling recipe of the paper's evaluation (Section 5.1.1), which
// sidesteps cross-core latching entirely. Every partition owns a private
// arena, so concurrent workers never write to shared simulated memory.
//
// ProbeRIDs preserves each probe tuple's global row id across the
// partitioning; wired into ProbeMachine.RIDs it makes the merged output of P
// workers (match count, order-independent checksum) identical to a
// one-partition run over the same relations, for any P, because the
// partitioning only routes (key, rid) pairs and never drops or duplicates
// them. Under EarlyExit with duplicate build keys the emitted match may
// still depend on P (chain order inside a partition's table differs from the
// global table's); all-matches probes and unique-build-key probes are
// partition-count invariant.
type PartitionedHashJoin struct {
	// Parts holds one self-contained workload per partition.
	Parts []*HashJoin
	// ProbeRIDs maps each partition's local probe index to the global probe
	// row id: partition p's lookup i is global row ProbeRIDs[p][i].
	ProbeRIDs [][]int
}

// partitionOf routes a key to one of parts partitions. It scrambles the key
// with the splitmix64 finalizer so that partitioning is independent of the
// tables' modulo bucket hash — dense keys spread evenly across partitions
// without aligning partition boundaries with bucket indices.
func partitionOf(key uint64, parts int) int {
	return int(mix(key) % uint64(parts))
}

// PartitionJoin hash-partitions the build and probe relations into parts
// independent workloads (at least one). Partitioning is a stable filter:
// tuples keep their relative order within a partition, so per-partition
// build phases insert in the same relative order as a global build would.
// The partitions are materialized concurrently (see eachPart); each builds
// its own arena from its own tuples, so the result does not depend on the
// goroutines' schedule.
func PartitionJoin(build, probe *relation.Relation, parts int) *PartitionedHashJoin {
	if parts < 1 {
		parts = 1
	}
	rids := make([][]int, parts)
	builds := partitionRelation(build, parts, nil)
	probes := partitionRelation(probe, parts, rids)
	pj := &PartitionedHashJoin{Parts: make([]*HashJoin, parts), ProbeRIDs: rids}
	eachPart(parts, func(p int) { pj.Parts[p] = NewHashJoin(builds[p], probes[p]) })
	return pj
}

// partitionRelation splits rel by partitionOf into parts stable filters. It
// counts first, so each partition's slice is allocated once at its final
// size. A non-nil rids receives, in rids[p], the row ids in rel of
// partition p's tuples.
func partitionRelation(rel *relation.Relation, parts int, rids [][]int) []*relation.Relation {
	counts := make([]int, parts)
	for _, tup := range rel.Tuples {
		counts[partitionOf(tup.Key, parts)]++
	}
	out := make([]*relation.Relation, parts)
	for p := range out {
		out[p] = &relation.Relation{Tuples: make([]relation.Tuple, 0, counts[p])}
		if rids != nil {
			rids[p] = make([]int, 0, counts[p])
		}
	}
	for i, tup := range rel.Tuples {
		p := partitionOf(tup.Key, parts)
		out[p].Tuples = append(out[p].Tuples, tup)
		if rids != nil {
			rids[p] = append(rids[p], i)
		}
	}
	return out
}

// eachPart calls f(p) for every p in [0, parts) on at most GOMAXPROCS
// goroutines and returns when every call has. f must touch only partition
// p's state: every partition owns a private arena, so per-partition set-up
// needs no locks and builds the same bytes in any order.
func eachPart(parts int, f func(p int)) {
	workers := min(parts, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for p := 0; p < parts; p++ {
			f(p)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := int(next.Add(1)) - 1; p < parts; p = int(next.Add(1)) - 1 {
				f(p)
			}
		}()
	}
	wg.Wait()
}

// ProbeTuples returns the total probe cardinality across partitions.
func (pj *PartitionedHashJoin) ProbeTuples() int {
	n := 0
	for _, j := range pj.Parts {
		n += j.Probe.Len()
	}
	return n
}

// PrebuildRaw populates every partition's hash table without charging
// simulator time, for probe-only experiments. The partitions are built
// concurrently; each writes only its own arena, so every table's bytes are
// those of a serial build.
//
// It is kept out of line on purpose. Inlined, it copies a closure into each
// caller in internal/experiments, and that shifts the serving engines'
// generic instantiations linked after them by 32 bytes mod 64. On a 2-vCPU
// x86 host, that shift alone cost serve-open about a fifth of its host
// lookups per second.
//
//go:noinline
func (pj *PartitionedHashJoin) PrebuildRaw() {
	eachPart(len(pj.Parts), func(p int) { pj.Parts[p].PrebuildRaw() })
}

// ProbeMachine returns a fresh probe machine for one partition, carrying
// global row ids and writing to out (which should be private to the worker
// running this partition).
func (pj *PartitionedHashJoin) ProbeMachine(part int, out *Output, earlyExit bool) *ProbeMachine {
	pm := pj.Parts[part].ProbeMachine(out, earlyExit)
	pm.RIDs = pj.ProbeRIDs[part]
	return pm
}

// ReferenceJoin computes the expected match count and order-independent
// checksum (all matches, global row ids) with plain Go maps. Because the
// partitioning routes every (rid, tuple) pair to exactly one partition, the
// result is identical for every partition count, including one.
func (pj *PartitionedHashJoin) ReferenceJoin() (count uint64, checksum uint64) {
	for p, j := range pj.Parts {
		builds := make(map[uint64][]uint64, j.Build.Len())
		for i := 0; i < j.Build.Len(); i++ {
			k, pay := j.Build.ReadRaw(i)
			builds[k] = append(builds[k], pay)
		}
		for i := 0; i < j.Probe.Len(); i++ {
			k, pay := j.Probe.ReadRaw(i)
			rid := uint64(pj.ProbeRIDs[p][i])
			for _, bp := range builds[k] {
				count++
				checksum += mix(rid) ^ mix(k) ^ mix(bp+1) ^ mix(pay+2)
			}
		}
	}
	return count, checksum
}

// ReferenceJoinFirstMatch is ReferenceJoin under early-exit semantics: each
// probe contributes at most the first match in its partition table's chain
// order. The tables must already be populated (PrebuildRaw or measured build
// phases).
func (pj *PartitionedHashJoin) ReferenceJoinFirstMatch() (count uint64, checksum uint64) {
	for p, j := range pj.Parts {
		for i := 0; i < j.Probe.Len(); i++ {
			k, pay := j.Probe.ReadRaw(i)
			if matches := j.Table.LookupAllRaw(k); len(matches) > 0 {
				rid := uint64(pj.ProbeRIDs[p][i])
				count++
				checksum += mix(rid) ^ mix(k) ^ mix(matches[0]+1) ^ mix(pay+2)
			}
		}
	}
	return count, checksum
}
