package ops

import (
	"bytes"
	"runtime"
	"testing"

	"amac/internal/arena"
	"amac/internal/memsim"
	"amac/internal/relation"
)

// arenaBytes returns every byte an arena has handed out, line by line.
func arenaBytes(a *arena.Arena) []byte {
	var out []byte
	for addr := uint64(memsim.LineSize); addr < a.Size(); addr += memsim.LineSize {
		n := min(uint64(memsim.LineSize), a.Size()-addr)
		out = append(out, a.Bytes(arena.Addr(addr), int(n))...)
	}
	return out
}

// insertLoop is PrebuildRaw without the host prefetch: the plain build-order
// InsertRaw loop whose table the prefetching form must reproduce.
func insertLoop(j *HashJoin) {
	for i := 0; i < j.Build.Len(); i++ {
		j.Table.InsertRaw(j.Build.ReadRaw(i))
	}
}

// sameArena reports where two workloads' arenas first differ, if they do.
func sameArena(t *testing.T, what string, got, want *HashJoin) {
	t.Helper()
	if got.Arena.Size() != want.Arena.Size() {
		t.Fatalf("%s: arena size %d, want %d", what, got.Arena.Size(), want.Arena.Size())
	}
	if got.Table.OverflowNodes() != want.Table.OverflowNodes() {
		t.Fatalf("%s: %d overflow nodes, want %d", what, got.Table.OverflowNodes(), want.Table.OverflowNodes())
	}
	if !bytes.Equal(arenaBytes(got.Arena), arenaBytes(want.Arena)) {
		t.Fatalf("%s: arena bytes differ", what)
	}
}

func TestPrebuildRawMatchesInsertLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec relation.JoinSpec
	}{
		{"uniform", relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 10, Seed: 3}},
		{"zipf0.5", relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 10, ZipfBuild: 0.5, Seed: 3}},
		{"zipf1.0", relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 10, ZipfBuild: 1, Seed: 3}},
		{"shorter than the prefetch distance", relation.JoinSpec{BuildSize: prebuildAhead - 3, ProbeSize: 4, ZipfBuild: 1, Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build, probe, err := relation.BuildJoin(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, buckets := range []int{0, 7} {
				got := NewHashJoinWithBuckets(build, probe, buckets)
				got.PrebuildRaw()
				want := NewHashJoinWithBuckets(build, probe, buckets)
				insertLoop(want)
				sameArena(t, tc.name, got, want)
			}
		})
	}
}

// serialPartitionJoin is PartitionJoin and PrebuildRaw done one partition at
// a time with growing slices and the plain insert loop.
func serialPartitionJoin(build, probe *relation.Relation, parts int) ([]*HashJoin, [][]int) {
	builds := make([]relation.Relation, parts)
	probes := make([]relation.Relation, parts)
	rids := make([][]int, parts)
	for _, tup := range build.Tuples {
		p := partitionOf(tup.Key, parts)
		builds[p].Tuples = append(builds[p].Tuples, tup)
	}
	for i, tup := range probe.Tuples {
		p := partitionOf(tup.Key, parts)
		probes[p].Tuples = append(probes[p].Tuples, tup)
		rids[p] = append(rids[p], i)
	}
	joins := make([]*HashJoin, parts)
	for p := range joins {
		joins[p] = NewHashJoin(&builds[p], &probes[p])
		insertLoop(joins[p])
	}
	return joins, rids
}

// TestPartitionJoinMatchesSerialBuild runs the concurrent set-up on at least
// four host threads, so under -race it also checks that partitions share no
// state.
func TestPartitionJoinMatchesSerialBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	build, probe, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 11, ZipfBuild: 0.75, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for parts := 1; parts <= 4; parts++ {
		pj := PartitionJoin(build, probe, parts)
		pj.PrebuildRaw()
		joins, rids := serialPartitionJoin(build, probe, parts)
		if pj.NumParts() != parts {
			t.Fatalf("parts=%d: %d partitions", parts, pj.NumParts())
		}
		for p := range joins {
			sameArena(t, "partition", pj.Parts[p], joins[p])
			if len(pj.ProbeRIDs[p]) != len(rids[p]) {
				t.Fatalf("parts=%d partition %d: %d probe rids, want %d", parts, p, len(pj.ProbeRIDs[p]), len(rids[p]))
			}
			for i := range rids[p] {
				if pj.ProbeRIDs[p][i] != rids[p][i] {
					t.Fatalf("parts=%d partition %d: rid %d is %d, want %d", parts, p, i, pj.ProbeRIDs[p][i], rids[p][i])
				}
			}
		}
	}
}
