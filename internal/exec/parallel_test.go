package exec_test

import (
	"testing"

	"amac/internal/exec"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
)

func TestSplitLookups(t *testing.T) {
	cases := []struct {
		n, workers int
	}{
		{0, 1}, {1, 1}, {10, 1}, {10, 3}, {3, 10}, {16, 4}, {17, 4},
	}
	for _, tc := range cases {
		shards := exec.SplitLookups(tc.n, tc.workers)
		if len(shards) != tc.workers {
			t.Fatalf("SplitLookups(%d, %d) returned %d shards", tc.n, tc.workers, len(shards))
		}
		next, total, max, min := 0, 0, 0, tc.n+1
		for _, sh := range shards {
			if sh.Lo != next {
				t.Fatalf("SplitLookups(%d, %d): shard starts at %d, want %d", tc.n, tc.workers, sh.Lo, next)
			}
			if sh.N < 0 {
				t.Fatalf("negative shard size %d", sh.N)
			}
			next = sh.Lo + sh.N
			total += sh.N
			if sh.N > max {
				max = sh.N
			}
			if sh.N < min {
				min = sh.N
			}
		}
		if total != tc.n {
			t.Fatalf("SplitLookups(%d, %d) covers %d lookups", tc.n, tc.workers, total)
		}
		if max-min > 1 {
			t.Fatalf("SplitLookups(%d, %d) imbalanced: min %d, max %d", tc.n, tc.workers, min, max)
		}
	}
	if got := exec.SplitLookups(5, 0); len(got) != 1 || got[0].N != 5 {
		t.Fatalf("SplitLookups with zero workers should clamp to one shard, got %+v", got)
	}
}

func TestShardDelegatesWithOffset(t *testing.T) {
	m := exectest.NewChainMachine(uniformLengths(10, 2), 3)
	sh := exec.Shard[exectest.ChainState]{M: m, Lo: 4, N: 3}
	if sh.NumLookups() != 3 {
		t.Fatalf("NumLookups = %d, want 3", sh.NumLookups())
	}
	if sh.ProvisionedStages() != m.ProvisionedStages() {
		t.Fatal("ProvisionedStages must delegate")
	}
	baseline(newCore(), sh)
	for i, visits := range m.Visits {
		want := 0
		if i >= 4 && i < 7 {
			want = 2
		}
		if visits != want {
			t.Fatalf("lookup %d visited %d nodes, want %d", i, visits, want)
		}
	}
}

// parallelChainRun shards a chain workload across workers — each worker gets
// its own machine, core and system, as the parallel layer requires — and
// returns the merged stats.
func parallelChainRun(workers int) exec.ParallelStats {
	const lookups = 240
	shards := exec.SplitLookups(lookups, workers)
	cores := make([]*memsim.Core, workers)
	machines := make([]*exectest.ChainMachine, workers)
	for w := range cores {
		sys := memsim.MustSystem(memsim.XeonX5670().ShareLLC(workers))
		cores[w] = sys.NewCore()
		machines[w] = exectest.NewChainMachine(variableLengths(shards[w].N, uint64(w+1)), 5)
	}
	return exec.RunParallel(cores, func(w int, c *memsim.Core) {
		softwarePipeline(c, machines[w], 8)
	})
}

// TestRunParallelDeterministic runs the same sharded workload repeatedly and
// under -race: the merged stats must be bit-identical across runs regardless
// of goroutine scheduling, because workers share no mutable state.
func TestRunParallelDeterministic(t *testing.T) {
	first := parallelChainRun(4)
	for run := 0; run < 3; run++ {
		again := parallelChainRun(4)
		if again.Merged != first.Merged {
			t.Fatalf("run %d merged stats differ:\n  %v\nvs\n  %v", run, again.Merged, first.Merged)
		}
		for w := range first.PerWorker {
			if again.PerWorker[w] != first.PerWorker[w] {
				t.Fatalf("run %d worker %d stats differ", run, w)
			}
		}
	}
}

// TestRunParallelMergeSemantics: elapsed cycles are the slowest worker's,
// instructions are summed.
func TestRunParallelMergeSemantics(t *testing.T) {
	ps := parallelChainRun(3)
	var maxCycles, sumInstr uint64
	for _, w := range ps.PerWorker {
		if w.Cycles > maxCycles {
			maxCycles = w.Cycles
		}
		sumInstr += w.Instructions
	}
	if ps.Merged.Cycles != maxCycles {
		t.Fatalf("merged cycles = %d, want slowest worker's %d", ps.Merged.Cycles, maxCycles)
	}
	if ps.ElapsedCycles() != maxCycles {
		t.Fatalf("ElapsedCycles = %d, want %d", ps.ElapsedCycles(), maxCycles)
	}
	if ps.Merged.Instructions != sumInstr {
		t.Fatalf("merged instructions = %d, want sum %d", ps.Merged.Instructions, sumInstr)
	}
	if len(ps.PerWorker) != 3 {
		t.Fatalf("PerWorker has %d entries, want 3", len(ps.PerWorker))
	}
}
