package ops_test

import (
	"testing"

	"amac/internal/ops"
	"amac/internal/relation"
)

func partitionJoinSpec(zr, zs float64) relation.JoinSpec {
	return relation.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 11, ZipfBuild: zr, ZipfProbe: zs, Seed: 7}
}

// TestPartitionJoinRoutesEveryTuple: partitioning drops nothing, duplicates
// nothing, keeps equal keys together, and preserves global probe row ids.
func TestPartitionJoinRoutesEveryTuple(t *testing.T) {
	build, probe, err := relation.BuildJoin(partitionJoinSpec(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	pj := ops.PartitionJoin(build, probe, 4)
	if len(pj.Parts) != 4 {
		t.Fatalf("len(Parts) = %d, want 4", len(pj.Parts))
	}
	if pj.ProbeTuples() != probe.Len() {
		t.Fatalf("partitions hold %d probe tuples, want %d", pj.ProbeTuples(), probe.Len())
	}
	totalBuild := 0
	keyPart := make(map[uint64]int)
	for p, j := range pj.Parts {
		totalBuild += j.Build.Len()
		for i := 0; i < j.Build.Len(); i++ {
			k, _ := j.Build.ReadRaw(i)
			if prev, ok := keyPart[k]; ok && prev != p {
				t.Fatalf("key %d appears in partitions %d and %d", k, prev, p)
			}
			keyPart[k] = p
		}
	}
	if totalBuild != build.Len() {
		t.Fatalf("partitions hold %d build tuples, want %d", totalBuild, build.Len())
	}
	seen := make(map[int]bool, probe.Len())
	for p, rids := range pj.ProbeRIDs {
		if len(rids) != pj.Parts[p].Probe.Len() {
			t.Fatalf("partition %d has %d rids for %d probe tuples", p, len(rids), pj.Parts[p].Probe.Len())
		}
		for i, rid := range rids {
			if seen[rid] {
				t.Fatalf("global rid %d routed twice", rid)
			}
			seen[rid] = true
			wantKey, wantPay := pj.Parts[p].Probe.ReadRaw(i)
			if probe.Tuples[rid].Key != wantKey || probe.Tuples[rid].Payload != wantPay {
				t.Fatalf("rid %d does not match its routed tuple", rid)
			}
		}
	}
	if len(seen) != probe.Len() {
		t.Fatalf("routed %d probe rids, want %d", len(seen), probe.Len())
	}
}

// TestPartitionedReferenceInvariant: the all-matches reference result is
// identical for every partition count, and matches the unpartitioned
// workload's reference join.
func TestPartitionedReferenceInvariant(t *testing.T) {
	build, probe, err := relation.BuildJoin(partitionJoinSpec(1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum := ops.NewHashJoin(build, probe).ReferenceJoin()
	for _, parts := range []int{1, 2, 3, 4, 8} {
		pj := ops.PartitionJoin(build, probe, parts)
		count, sum := pj.ReferenceJoin()
		if count != wantCount || sum != wantSum {
			t.Fatalf("parts=%d: reference join (%d, %#x) differs from unpartitioned (%d, %#x)",
				parts, count, sum, wantCount, wantSum)
		}
	}
}

// TestPartitionedProbeMatchesReference: running the probe machines over the
// partitions (single-threaded here; concurrency is covered in the exec and
// experiments packages) reproduces the partitioned reference exactly, with
// and without early exit.
func TestPartitionedProbeMatchesReference(t *testing.T) {
	build, probe, err := relation.BuildJoin(partitionJoinSpec(0.75, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, earlyExit := range []bool{false, true} {
		pj := ops.PartitionJoin(build, probe, 3)
		pj.PrebuildRaw()
		var wantCount, wantSum uint64
		if earlyExit {
			wantCount, wantSum = pj.ReferenceJoinFirstMatch()
		} else {
			wantCount, wantSum = pj.ReferenceJoin()
		}
		var count, sum uint64
		for p := range pj.Parts {
			out := ops.NewOutput(pj.Parts[p].Arena, false)
			ops.RunMachine(newCore(), pj.ProbeMachine(p, out, earlyExit), ops.AMAC, ops.Params{Window: 8})
			count += out.Count
			sum += out.Checksum
		}
		if count != wantCount || sum != wantSum {
			t.Fatalf("earlyExit=%v: probe produced (%d, %#x), reference (%d, %#x)",
				earlyExit, count, sum, wantCount, wantSum)
		}
	}
}

// TestPartitionedFirstMatchInvariantUniqueKeys: with unique build keys the
// first match is the only match, so even early-exit output is independent of
// the partition count.
func TestPartitionedFirstMatchInvariantUniqueKeys(t *testing.T) {
	build, probe, err := relation.BuildJoin(partitionJoinSpec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ref := ops.NewHashJoin(build, probe)
	ref.PrebuildRaw()
	wantCount, wantSum := ref.ReferenceJoinFirstMatch()
	for _, parts := range []int{1, 2, 5} {
		pj := ops.PartitionJoin(build, probe, parts)
		pj.PrebuildRaw()
		count, sum := pj.ReferenceJoinFirstMatch()
		if count != wantCount || sum != wantSum {
			t.Fatalf("parts=%d: first-match reference (%d, %#x) differs from unpartitioned (%d, %#x)",
				parts, count, sum, wantCount, wantSum)
		}
	}
}
