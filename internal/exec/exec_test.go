package exec_test

import (
	"sort"
	"testing"

	"amac/internal/exec"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
	"amac/internal/xrand"
)

// newCore builds a Xeon-like core for engine tests.
func newCore() *memsim.Core {
	sys := memsim.MustSystem(memsim.XeonX5670())
	return sys.NewCore()
}

// checkAllCompleted verifies that every lookup completed exactly once with
// exactly the expected number of node visits.
func checkAllCompleted(t *testing.T, m *exectest.ChainMachine) {
	t.Helper()
	if len(m.Completions) != len(m.Lengths) {
		t.Fatalf("completed %d of %d lookups", len(m.Completions), len(m.Lengths))
	}
	seen := make(map[int]bool)
	for _, idx := range m.Completions {
		if seen[idx] {
			t.Fatalf("lookup %d completed twice", idx)
		}
		seen[idx] = true
	}
	for i, want := range m.Lengths {
		if m.Visits[i] != want {
			t.Fatalf("lookup %d visited %d nodes, want %d", i, m.Visits[i], want)
		}
	}
}

// baseline, groupPrefetch and softwarePipeline run a machine as a batch: the
// technique's engine over the machine wrapped in a MachineSource.
func baseline[S any](c *memsim.Core, m exec.Machine[S]) {
	exec.BaselineStream(c, exec.NewMachineSource(m), nil)
}

func groupPrefetch[S any](c *memsim.Core, m exec.Machine[S], group int) {
	exec.GroupPrefetchStream(c, exec.NewMachineSource(m), group, nil)
}

func softwarePipeline[S any](c *memsim.Core, m exec.Machine[S], inflight int) {
	exec.SoftwarePipelineStream(c, exec.NewMachineSource(m), inflight, nil)
}

func uniformLengths(n, l int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = l
	}
	return ls
}

func variableLengths(n int, seed uint64) []int {
	rng := xrand.New(seed)
	ls := make([]int, n)
	for i := range ls {
		ls[i] = 1 + rng.Intn(9) // 1..9, provisioned depth will be exceeded by some
	}
	return ls
}

func TestBaselineCompletesAllLookups(t *testing.T) {
	m := exectest.NewChainMachine(variableLengths(200, 1), 5)
	baseline(newCore(), m)
	checkAllCompleted(t, m)
}

func TestBaselineCompletionOrderIsInputOrder(t *testing.T) {
	m := exectest.NewChainMachine(variableLengths(100, 2), 5)
	baseline(newCore(), m)
	if !sort.IntsAreSorted(m.Completions) {
		t.Fatal("baseline must complete lookups in input order")
	}
}

func TestGroupPrefetchCompletesAllLookups(t *testing.T) {
	for _, group := range []int{1, 3, 10, 64} {
		m := exectest.NewChainMachine(variableLengths(257, 2), 5)
		groupPrefetch(newCore(), m, group)
		checkAllCompleted(t, m)
	}
}

func TestGroupPrefetchHandlesChainsLongerThanProvisioned(t *testing.T) {
	// Provision only 3 stages; chains of up to 9 require the clean-up pass.
	m := exectest.NewChainMachine(variableLengths(100, 3), 3)
	groupPrefetch(newCore(), m, 8)
	checkAllCompleted(t, m)
}

func TestSoftwarePipelineCompletesAllLookups(t *testing.T) {
	for _, inflight := range []int{1, 4, 10, 32} {
		m := exectest.NewChainMachine(variableLengths(311, 4), 5)
		softwarePipeline(newCore(), m, inflight)
		checkAllCompleted(t, m)
	}
}

func TestSoftwarePipelineHandlesLongChains(t *testing.T) {
	m := exectest.NewChainMachine(variableLengths(100, 5), 3)
	softwarePipeline(newCore(), m, 10)
	checkAllCompleted(t, m)
}

func TestPrefetchingEnginesBeatBaselineOnUniformChains(t *testing.T) {
	const n, l = 400, 4
	base := newCore()
	baseline(base, exectest.NewChainMachine(uniformLengths(n, l), l+1))

	gp := newCore()
	groupPrefetch(gp, exectest.NewChainMachine(uniformLengths(n, l), l+1), 10)

	spp := newCore()
	softwarePipeline(spp, exectest.NewChainMachine(uniformLengths(n, l), l+1), 10)

	if gp.Cycle() >= base.Cycle() {
		t.Fatalf("GP (%d cycles) should beat the baseline (%d cycles) on uniform DRAM-resident chains", gp.Cycle(), base.Cycle())
	}
	if spp.Cycle() >= base.Cycle() {
		t.Fatalf("SPP (%d cycles) should beat the baseline (%d cycles) on uniform DRAM-resident chains", spp.Cycle(), base.Cycle())
	}
}

func TestGroupPrefetchWithGroupOneMatchesBaselineWork(t *testing.T) {
	// With a group of one, GP degenerates to sequential execution with
	// prefetches that cannot be overlapped; it must not be faster than the
	// baseline by more than the noise of the extra bookkeeping.
	n := 100
	base := newCore()
	baseline(base, exectest.NewChainMachine(uniformLengths(n, 4), 5))
	gp := newCore()
	groupPrefetch(gp, exectest.NewChainMachine(uniformLengths(n, 4), 5), 1)
	if gp.Cycle() < base.Cycle()*95/100 {
		t.Fatalf("GP with group=1 (%d cycles) should not beat baseline (%d cycles)", gp.Cycle(), base.Cycle())
	}
}

func TestInstructionOverheadOrdering(t *testing.T) {
	// The paper's Table 3: GP executes more instructions per tuple than
	// SPP, which executes more than the baseline.
	n := 500
	lengths := uniformLengths(n, 4)

	base := newCore()
	baseline(base, exectest.NewChainMachine(lengths, 5))
	gp := newCore()
	groupPrefetch(gp, exectest.NewChainMachine(lengths, 5), 10)
	spp := newCore()
	softwarePipeline(spp, exectest.NewChainMachine(lengths, 5), 10)

	bi := base.Stats().Instructions
	gi := gp.Stats().Instructions
	si := spp.Stats().Instructions
	if !(gi > si && si > bi) {
		t.Fatalf("instruction ordering violated: baseline=%d spp=%d gp=%d", bi, si, gi)
	}
}

func TestEarlyExitWastesGPAndSPPWork(t *testing.T) {
	// All chains are much shorter than provisioned: GP and SPP must pay
	// skip costs, so their instruction counts exceed a run where the
	// provisioning matches reality.
	n := 300
	short := uniformLengths(n, 1)

	gpOver := newCore()
	groupPrefetch(gpOver, exectest.NewChainMachine(short, 6), 10)
	gpExact := newCore()
	groupPrefetch(gpExact, exectest.NewChainMachine(short, 2), 10)
	if gpOver.Stats().Instructions <= gpExact.Stats().Instructions {
		t.Fatal("over-provisioned GP should execute more instructions than exactly provisioned GP")
	}

	sppOver := newCore()
	softwarePipeline(sppOver, exectest.NewChainMachine(short, 6), 10)
	sppExact := newCore()
	softwarePipeline(sppExact, exectest.NewChainMachine(short, 2), 10)
	if sppOver.Stats().Instructions <= sppExact.Stats().Instructions {
		t.Fatal("over-provisioned SPP should execute more instructions than exactly provisioned SPP")
	}
}

func TestLatchConflictsResolvedByAllEngines(t *testing.T) {
	run := func(name string, f func(c *memsim.Core, m *exectest.LatchMachine)) {
		t.Run(name, func(t *testing.T) {
			m := exectest.NewLatchMachine(150, 3)
			f(newCore(), m)
			if len(m.Completions) != 150 {
				t.Fatalf("completed %d of 150 lookups", len(m.Completions))
			}
			seen := make(map[int]bool)
			for _, idx := range m.Completions {
				if seen[idx] {
					t.Fatalf("lookup %d completed twice", idx)
				}
				seen[idx] = true
			}
		})
	}
	run("baseline", func(c *memsim.Core, m *exectest.LatchMachine) { baseline(c, m) })
	run("gp", func(c *memsim.Core, m *exectest.LatchMachine) { groupPrefetch(c, m, 8) })
	run("spp", func(c *memsim.Core, m *exectest.LatchMachine) { softwarePipeline(c, m, 8) })
}

func TestLatchConflictsOnlyHappenWithMultipleInFlight(t *testing.T) {
	m := exectest.NewLatchMachine(50, 3)
	baseline(newCore(), m)
	if m.Retries != 0 {
		t.Fatalf("baseline has one lookup in flight; retries = %d", m.Retries)
	}
	m2 := exectest.NewLatchMachine(50, 3)
	groupPrefetch(newCore(), m2, 8)
	if m2.Retries == 0 {
		t.Fatal("grouped execution of latched lookups should produce conflicts")
	}
}

func TestEnginesToleratePathologicalParameters(t *testing.T) {
	m := exectest.NewChainMachine(uniformLengths(10, 2), 3)
	groupPrefetch(newCore(), m, 0) // clamps to 1
	checkAllCompleted(t, m)

	m2 := exectest.NewChainMachine(uniformLengths(10, 2), 3)
	softwarePipeline(newCore(), m2, -5) // clamps to 1
	checkAllCompleted(t, m2)

	m3 := exectest.NewChainMachine(uniformLengths(3, 2), 0) // depth clamps to 1
	groupPrefetch(newCore(), m3, 2)
	checkAllCompleted(t, m3)

	m4 := exectest.NewChainMachine(nil, 3)
	baseline(newCore(), m4) // zero lookups is a no-op
	groupPrefetch(newCore(), exectest.NewChainMachine(nil, 3), 4)
	softwarePipeline(newCore(), exectest.NewChainMachine(nil, 3), 4)
}

func TestGroupPrefetchReachesMLPLimit(t *testing.T) {
	// With a group of 10 and DRAM-resident chains, GP should drive close to
	// the 10-MSHR limit: prefetch issue must occasionally find all MSHRs
	// busy only if the group exceeds the limit.
	cfg := memsim.XeonX5670()
	sys := memsim.MustSystem(cfg)
	c := sys.NewCore()
	m := exectest.NewChainMachine(uniformLengths(300, 4), 5)
	groupPrefetch(c, m, 15)
	if c.Stats().MSHRFullStalls == 0 {
		t.Fatal("a group of 15 should exceed the 10-entry MSHR file at least once")
	}
}
