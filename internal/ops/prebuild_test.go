package ops

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"amac/internal/arena"
	"amac/internal/ht"
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

// insertLoop is PrebuildRaw's reference: the plain build-order InsertRaw
// loop whose table the one-pass span build must reproduce.
func insertLoop(j *HashJoin) {
	for i := 0; i < j.Build.Len(); i++ {
		j.Table.InsertRaw(j.Build.ReadRaw(i))
	}
}

// perTupleInput is NewInput's reference: the same span, written with one
// Bytes call per tuple.
func perTupleInput(a *arena.Arena, rel *relation.Relation) *Input {
	if rel.Len() == 0 {
		return &Input{a: a, base: a.Alloc(relation.TupleBytes, memsim.LineSize)}
	}
	in := &Input{a: a, n: rel.Len(), base: a.AllocSpan(uint64(rel.Len()) * relation.TupleBytes)}
	for i, tup := range rel.Tuples {
		b := a.Bytes(in.TupleAddr(i), relation.TupleBytes)
		binary.LittleEndian.PutUint64(b, tup.Key)
		binary.LittleEndian.PutUint64(b[8:], tup.Payload)
	}
	return in
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

// checkPrebuild builds one workload twice in arenas of the given chunk size:
// with NewInput and PrebuildRaw, and with the per-tuple encoding and the
// InsertRaw loop. The arenas must match after materialization and again
// after the build.
func checkPrebuild(t *testing.T, what string, build, probe *relation.Relation, buckets, chunk int) {
	t.Helper()
	got := NewHashJoinInArena(arena.NewWithChunkSize(chunk), build, probe, buckets)
	if buckets <= 0 {
		buckets = build.Len() / TuplesPerBucket
	}
	a := arena.NewWithChunkSize(chunk)
	want := &HashJoin{Arena: a, Table: ht.New(a, buckets), Build: perTupleInput(a, build), Probe: perTupleInput(a, probe)}
	sameArena(t, what+": materialized", got, want)
	got.PrebuildRaw()
	insertLoop(want)
	sameArena(t, what+": built", got, want)
}

// TestPrebuildRawMatchesInsertLoop covers Zipf 0, 0.5 and 1 at 2^12 tuples
// and at 2^17+3 (an odd count, so the last chunk is partial), the default
// bucket count, 7 buckets (long chains) and 8193, in default arenas and in
// 4 KB-chunk arenas whose input spans and overflow nodes cross many chunk
// edges.
func TestPrebuildRawMatchesInsertLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec relation.JoinSpec
	}{
		{"uniform", relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 10, Seed: 3}},
		{"zipf0.5", relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 10, ZipfBuild: 0.5, Seed: 3}},
		{"zipf1.0", relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 10, ZipfBuild: 1, Seed: 3}},
		// ht.InsertTuplesRaw hashes 16 tuples ahead of its inserts.
		{"shorter than the prefetch distance", relation.JoinSpec{BuildSize: 13, ProbeSize: 4, ZipfBuild: 1, Seed: 3}},
		{"uniform 2^17+3", relation.JoinSpec{BuildSize: 1<<17 + 3, ProbeSize: 5, Seed: 5}},
		{"zipf0.5 2^17+3", relation.JoinSpec{BuildSize: 1<<17 + 3, ProbeSize: 5, ZipfBuild: 0.5, Seed: 5}},
		{"zipf1.0 2^17+3", relation.JoinSpec{BuildSize: 1<<17 + 3, ProbeSize: 5, ZipfBuild: 1, Seed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build, probe, err := relation.BuildJoin(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, buckets := range []int{0, 7, 8193} {
				for _, chunk := range []int{arena.DefaultChunkBytes, 4096} {
					checkPrebuild(t, fmt.Sprintf("buckets=%d chunk=%d", buckets, chunk), build, probe, buckets, chunk)
				}
			}
		})
	}
}

// FuzzPrebuildRaw compares PrebuildRaw with the InsertRaw loop, and NewInput
// with the per-tuple encoding, on up to 2^12 keys drawn from a small domain
// (so chains grow long), 1 to 64 buckets and chunks of 64·2^k bytes.
func FuzzPrebuildRaw(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint8(3), uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{7}, 100), uint8(1), uint8(4), uint8(1))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 300), uint8(9), uint8(63), uint8(6))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, domain, buckets, chunkShift uint8) {
		keys := data[:min(len(data), 1<<12)]
		rel := &relation.Relation{Tuples: make([]relation.Tuple, len(keys))}
		for i, b := range keys {
			rel.Tuples[i] = relation.Tuple{Key: uint64(b)%(uint64(domain)+1) + 1, Payload: uint64(i) + 1}
		}
		chunk := memsim.LineSize << (chunkShift % 8)
		checkPrebuild(t, fmt.Sprintf("n=%d chunk=%d", len(keys), chunk), rel, rel, int(buckets%64)+1, chunk)
	})
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
		if len(pj.Parts) != parts {
			t.Fatalf("parts=%d: %d partitions", parts, len(pj.Parts))
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
