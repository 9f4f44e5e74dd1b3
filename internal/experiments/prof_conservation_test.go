package experiments

import (
	"fmt"
	"testing"

	"amac/internal/adapt"
	"amac/internal/arena"
	"amac/internal/ht"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/pipeline"
	"amac/internal/prof"
	"amac/internal/relation"
	"amac/internal/serve"
)

// checkConservation asserts the profiler's central invariant: every cycle the
// core advanced is attributed to exactly one (context, category) cell, so the
// attribution total reconciles exactly — not approximately — with the core's
// cycle counter.
func checkConservation(t *testing.T, name string, cp *prof.CoreProf, cycles uint64) {
	t.Helper()
	if got := cp.TotalCycles(); got != cycles {
		t.Errorf("%s: attributed %d cycles, core counted %d (off by %d)", name, got, cycles, int64(got)-int64(cycles))
	}
	if got := cp.Breakdown().Total(); got != cycles {
		t.Errorf("%s: breakdown sums to %d cycles, core counted %d", name, got, cycles)
	}
}

// profCore builds a fresh profiled core on the given socket model.
func profCore(machine memsim.Config, name string) (*memsim.Core, *prof.CoreProf) {
	sys := memsim.MustSystem(machine)
	c := sys.NewCore()
	cp := prof.NewCoreProf(name)
	c.SetProfiler(cp)
	return c, cp
}

// TestProfConservationEngines runs every engine over the batch workloads —
// the uniform and the skewed (divergent-chain, early-exit) hash-join probe
// and the BST search — and requires exact conservation for each.
func TestProfConservationEngines(t *testing.T) {
	machine := memsim.XeonX5670()
	for _, tech := range ops.Techniques {
		for _, skew := range []float64{0, 1.0} {
			name := fmt.Sprintf("%v/join-zipf%.1f", tech, skew)
			spec := relation.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, ZipfBuild: skew, Seed: 7}
			pj := newParallelJoin(spec, 1)
			c, cp := profCore(machine, name)
			warmTable(c, pj.Parts[0])
			c.ResetStats()
			out := ops.NewOutput(pj.Parts[0].Arena, false)
			ops.RunMachine(c, pj.ProbeMachine(0, out, skew > 0), tech, ops.Params{Window: 8})
			checkConservation(t, name, cp, c.Stats().Cycles)
		}

		name := fmt.Sprintf("%v/bst", tech)
		w, out := defaultEnv.wl.bstWorkload(1<<10, 7)
		c, cp := profCore(machine, name)
		ops.RunMachine(c, w.SearchMachine(out), tech, ops.Params{Window: 8})
		checkConservation(t, name, cp, c.Stats().Cycles)
	}
}

// TestProfConservationStreaming runs every streaming engine through the
// serving layer (open-loop arrivals, queue idle included) and reconciles each
// worker's profile against its core.
func TestProfConservationStreaming(t *testing.T) {
	machine := memsim.XeonX5670()
	spec := relation.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, ZipfBuild: 1.0, Seed: 7}
	pj := newParallelJoin(spec, 1)
	n := pj.Parts[0].Probe.Len()
	arrivals := make([]uint64, n)
	for i := range arrivals {
		arrivals[i] = uint64(i) * 120 // sparse enough to exercise the idle path
	}
	for _, tech := range ops.Techniques {
		sp := prof.NewProfile()
		out := ops.NewOutput(pj.Parts[0].Arena, false)
		res := serve.Run(serve.Options{
			Hardware:  machine,
			Technique: tech,
			Window:    8,
			Prepare:   func(w int, c *memsim.Core) { warmTable(c, pj.Parts[0]) },
			Profile:   sp,
		}, []serve.Worker[ops.ProbeState]{{Machine: pj.ProbeMachine(0, out, true), Arrivals: arrivals}})
		checkConservation(t, fmt.Sprintf("%v/serve", tech), sp.Cores()[0], res.PerWorker[0].Stats.Cycles)
	}
}

// TestProfConservationAdaptive runs the adaptive controller's probe/exploit
// loop over the phase-shift workload obsN replays.
func TestProfConservationAdaptive(t *testing.T) {
	n := 1 << 12
	half := n / 2
	ex := defaultEnv.wl.adaptWorkload(adaptKey{"shiftjoin", 1 << 8, n, half, 7}, func() adaptExec {
		return adaptShiftJoinExec(1<<8, n, half, 7)
	})
	c := adaptCore(memsim.XeonX5670(), ex)
	cp := prof.NewCoreProf("adaptive")
	c.SetProfiler(cp)
	ctl := adapt.NewController(adapt.Config{SegmentLookups: 256, ProbeLookups: 64})
	ex.adaptive(c, ctl)
	checkConservation(t, "adaptive/shiftjoin", cp, c.Stats().Cycles)
	if cp.SumUnder("probe", prof.CatCompute) == 0 {
		t.Error("adaptive run charged no compute under the probe frame")
	}
}

// TestProfConservationPipeline runs a two-stage build→probe→aggregate
// pipeline (with a charged build prelude) on one profiled core.
func TestProfConservationPipeline(t *testing.T) {
	const rows, buildN, groups = 1 << 10, 1 << 9, 64
	buildRel := pipeRel("R", buildN,
		func(i int) uint64 { return uint64(i) + 1 },
		func(i int) uint64 { return uint64(i) % groups })
	probeRel := pipeRel("S", rows,
		func(i int) uint64 { return (uint64(i)*2654435761)%uint64(2*buildN) + 1 },
		func(i int) uint64 { return uint64(i) })

	a := arena.New()
	table := ht.New(a, buildN/ops.TuplesPerBucket)
	agg := ht.NewAgg(a, groups)
	b := pipeline.NewBuilder(a)
	b.PreludeBuild(table, ops.NewInput(a, buildRel))
	b.ScanProbe(table, ops.NewInput(a, probeRel), true)
	b.Aggregate(agg, pipeline.SelBuildPayload)

	c, cp := profCore(memsim.XeonX5670(), "pipeline")
	b.Build(nil).Run(c, []pipeline.StageConfig{
		{Tech: ops.AMAC, Window: 8},
		{Tech: ops.GP, Window: 4},
	})
	checkConservation(t, "pipeline/agg", cp, c.Stats().Cycles)
}
