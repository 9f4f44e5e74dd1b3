package core_test

import (
	"testing"

	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
	"amac/internal/xrand"
)

func newCore() *memsim.Core {
	sys := memsim.MustSystem(memsim.XeonX5670())
	return sys.NewCore()
}

// baseline, groupPrefetch and softwarePipeline run a machine as a batch
// under the rival techniques, for comparisons against AMAC.
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

func skewedLengths(n int, seed uint64) []int {
	// A mix of very short and very long chains, the kind of irregularity
	// the paper's skewed hash tables produce.
	rng := xrand.New(seed)
	ls := make([]int, n)
	for i := range ls {
		if rng.Intn(10) == 0 {
			ls[i] = 10 + rng.Intn(20)
		} else {
			ls[i] = 1 + rng.Intn(3)
		}
	}
	return ls
}

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

func TestAMACCompletesAllLookups(t *testing.T) {
	for _, width := range []int{1, 2, 10, 32} {
		m := exectest.NewChainMachine(skewedLengths(300, 7), 5)
		stats := core.Run(newCore(), m, core.Options{Width: width})
		checkAllCompleted(t, m)
		if stats.Initiated != 300 || stats.Completed != 300 {
			t.Fatalf("stats %+v", stats)
		}
	}
}

func TestAMACZeroLookups(t *testing.T) {
	m := exectest.NewChainMachine(nil, 3)
	stats := core.Run(newCore(), m, core.Options{Width: 8})
	if stats.Completed != 0 || stats.Initiated != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestAMACDefaultWidth(t *testing.T) {
	m := exectest.NewChainMachine(uniformLengths(100, 3), 4)
	stats := core.Run(newCore(), m, core.Options{})
	if stats.Width != core.DefaultWidth {
		t.Fatalf("width = %d, want default %d", stats.Width, core.DefaultWidth)
	}
	checkAllCompleted(t, m)
}

func TestAMACWidthClampedToLookupCount(t *testing.T) {
	m := exectest.NewChainMachine(uniformLengths(3, 2), 3)
	stats := core.Run(newCore(), m, core.Options{Width: 100})
	if stats.Width != 3 {
		t.Fatalf("width = %d, want 3", stats.Width)
	}
	checkAllCompleted(t, m)
}

// A batch has no admission times, so a batch run ignores Options.Deadline:
// on a core whose clock is already far past the deadline, every lookup still
// completes and the simulation matches a run without one.
func TestAMACBatchIgnoresDeadline(t *testing.T) {
	run := func(deadline uint64) (core.RunStats, memsim.Stats) {
		c := newCore()
		c.AdvanceTo(1 << 20)
		m := exectest.NewChainMachine(uniformLengths(200, 3), 4)
		stats := core.Run(c, m, core.Options{Width: 8, Deadline: deadline})
		checkAllCompleted(t, m)
		return stats, c.Stats()
	}
	wantRun, wantSim := run(0)
	gotRun, gotSim := run(1)
	if gotRun.TimedOut != 0 || gotRun != wantRun {
		t.Fatalf("run stats with a deadline = %+v, want %+v", gotRun, wantRun)
	}
	if gotSim != wantSim {
		t.Fatalf("simulated stats with a deadline = %+v, want %+v", gotSim, wantSim)
	}
}

func TestAMACBeatsBaselineOnUniformChains(t *testing.T) {
	n, l := 400, 4
	base := newCore()
	baseline(base, exectest.NewChainMachine(uniformLengths(n, l), l+1))
	amac := newCore()
	core.Run(amac, exectest.NewChainMachine(uniformLengths(n, l), l+1), core.Options{Width: 10})
	if amac.Cycle()*2 >= base.Cycle() {
		t.Fatalf("AMAC (%d cycles) should be far faster than baseline (%d cycles) on DRAM-resident chains", amac.Cycle(), base.Cycle())
	}
}

func TestAMACRobustToIrregularChains(t *testing.T) {
	// The paper's central claim: under irregular lookups AMAC retains its
	// advantage while GP and SPP lose much of theirs. Compare the
	// slowdown each technique suffers going from uniform to skewed chains
	// with the same total number of node visits.
	const n = 600
	skew := skewedLengths(n, 3)
	totalVisits := 0
	for _, l := range skew {
		totalVisits += l
	}
	uniformLen := totalVisits / n
	uni := uniformLengths(n, uniformLen)

	cyclesPerVisit := func(run func(c *memsim.Core, lengths []int)) (uniform, skewed float64) {
		cu := newCore()
		run(cu, uni)
		cs := newCore()
		run(cs, skew)
		return float64(cu.Cycle()) / float64(n*uniformLen), float64(cs.Cycle()) / float64(totalVisits)
	}

	gpU, gpS := cyclesPerVisit(func(c *memsim.Core, lengths []int) {
		groupPrefetch(c, exectest.NewChainMachine(lengths, uniformLen+1), 10)
	})
	amacU, amacS := cyclesPerVisit(func(c *memsim.Core, lengths []int) {
		core.Run(c, exectest.NewChainMachine(lengths, uniformLen+1), core.Options{Width: 10})
	})

	gpSlowdown := gpS / gpU
	amacSlowdown := amacS / amacU
	if amacSlowdown >= gpSlowdown {
		t.Fatalf("AMAC slowdown under skew (%.2fx) should be smaller than GP's (%.2fx)", amacSlowdown, gpSlowdown)
	}
	if amacSlowdown > 1.5 {
		t.Fatalf("AMAC should be robust to irregular chains, got %.2fx slowdown", amacSlowdown)
	}
}

func TestAMACOutperformsGPAndSPPOnIrregularChains(t *testing.T) {
	const n = 600
	lengths := skewedLengths(n, 11)

	gp := newCore()
	groupPrefetch(gp, exectest.NewChainMachine(lengths, 3), 10)
	spp := newCore()
	softwarePipeline(spp, exectest.NewChainMachine(lengths, 3), 10)
	amac := newCore()
	core.Run(amac, exectest.NewChainMachine(lengths, 3), core.Options{Width: 10})

	if amac.Cycle() >= gp.Cycle() {
		t.Fatalf("AMAC (%d) should beat GP (%d) under irregular chains", amac.Cycle(), gp.Cycle())
	}
	if amac.Cycle() >= spp.Cycle() {
		t.Fatalf("AMAC (%d) should beat SPP (%d) under irregular chains", amac.Cycle(), spp.Cycle())
	}
}

func TestAMACInstructionOverheadBelowGPAndSPP(t *testing.T) {
	n := 500
	lengths := uniformLengths(n, 4)
	gp := newCore()
	groupPrefetch(gp, exectest.NewChainMachine(lengths, 5), 10)
	spp := newCore()
	softwarePipeline(spp, exectest.NewChainMachine(lengths, 5), 10)
	amac := newCore()
	core.Run(amac, exectest.NewChainMachine(lengths, 5), core.Options{Width: 10})
	base := newCore()
	baseline(base, exectest.NewChainMachine(lengths, 5))

	ai := amac.Stats().Instructions
	if ai >= gp.Stats().Instructions || ai >= spp.Stats().Instructions {
		t.Fatalf("AMAC instructions (%d) should be below GP (%d) and SPP (%d)",
			ai, gp.Stats().Instructions, spp.Stats().Instructions)
	}
	if ai <= base.Stats().Instructions {
		t.Fatal("AMAC must still pay more instructions than the baseline (state management)")
	}
}

func TestAMACResolvesLatchConflicts(t *testing.T) {
	m := exectest.NewLatchMachine(200, 3)
	stats := core.Run(newCore(), m, core.Options{Width: 8})
	if len(m.Completions) != 200 {
		t.Fatalf("completed %d of 200", len(m.Completions))
	}
	if m.Retries == 0 || stats.Retries == 0 {
		t.Fatal("in-flight lookups should have conflicted on the latch at least once")
	}
	if stats.Retries != uint64(m.Retries) {
		t.Fatalf("engine counted %d retries, machine observed %d", stats.Retries, m.Retries)
	}
}

func TestAMACImmediateRefillKeepsMoreAccessesInFlight(t *testing.T) {
	// Disabling the merged terminal/initial stage optimisation (Section 3.1,
	// optimisation 1) must not change results but should cost cycles on
	// early-exit-heavy workloads.
	lengths := skewedLengths(500, 5)

	on := newCore()
	mOn := exectest.NewChainMachine(lengths, 3)
	core.Run(on, mOn, core.Options{Width: 10})
	checkAllCompleted(t, mOn)

	off := newCore()
	mOff := exectest.NewChainMachine(lengths, 3)
	core.Run(off, mOff, core.Options{Width: 10, DisableImmediateRefill: true})
	checkAllCompleted(t, mOff)

	if on.Cycle() > off.Cycle() {
		t.Fatalf("immediate refill (%d cycles) should not be slower than deferred refill (%d cycles)", on.Cycle(), off.Cycle())
	}
}

func TestAMACApproachesMSHRLimit(t *testing.T) {
	// With width 15 > 10 MSHRs, prefetch issue must hit the MSHR limit; the
	// paper's Figure 6c shows no benefit beyond the hardware limit.
	c := newCore()
	core.Run(c, exectest.NewChainMachine(uniformLengths(400, 4), 5), core.Options{Width: 15})
	if c.Stats().MSHRFullStalls == 0 {
		t.Fatal("width 15 should saturate the 10-entry MSHR file")
	}

	c8 := newCore()
	core.Run(c8, exectest.NewChainMachine(uniformLengths(400, 4), 5), core.Options{Width: 8})
	c15 := newCore()
	core.Run(c15, exectest.NewChainMachine(uniformLengths(400, 4), 5), core.Options{Width: 15})
	// Beyond the MSHR limit additional width must not help much.
	if float64(c15.Cycle()) < float64(c8.Cycle())*0.8 {
		t.Fatalf("width 15 (%d cycles) should not be much faster than width 8 (%d cycles)", c15.Cycle(), c8.Cycle())
	}
}

func TestAMACDeterministic(t *testing.T) {
	run := func() uint64 {
		c := newCore()
		core.Run(c, exectest.NewChainMachine(skewedLengths(300, 9), 4), core.Options{Width: 10})
		return c.Cycle()
	}
	if run() != run() {
		t.Fatal("AMAC execution must be deterministic")
	}
}

func TestAMACStageVisitCountMatchesWork(t *testing.T) {
	lengths := uniformLengths(50, 3)
	m := exectest.NewChainMachine(lengths, 4)
	stats := core.Run(newCore(), m, core.Options{Width: 5})
	// Each lookup needs exactly 3 stage visits (3 node hops).
	if stats.StageVisits != 150 {
		t.Fatalf("StageVisits = %d, want 150", stats.StageVisits)
	}
}
