package experiments

import (
	"fmt"

	"amac/internal/core"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/table"
)

func init() {
	register(Descriptor{ID: "abl-inflight", Title: "Ablation: AMAC probe cost across a wide range of in-flight lookups (Section 6 discussion)", Run: ablInflight})
	register(Descriptor{ID: "abl-refill", Title: "Ablation: AMAC with and without the merged terminal/initial stage (immediate slot refill)", Run: ablRefill})
	register(Descriptor{ID: "abl-mshr", Title: "Ablation: sensitivity of all techniques to the number of L1-D MSHRs", Run: ablMSHR})
}

// ablInflight sweeps the AMAC circular-buffer width well past the hardware
// MLP limit, quantifying the Section 6 observation that very large in-flight
// counts stop helping once the MSHRs are saturated.
func ablInflight(cfg Config) []*table.Table {
	sz := cfg.sizes()
	widths := []int{1, 2, 4, 8, 10, 16, 32, 64}
	rows := make([]string, len(widths))
	for i, w := range widths {
		rows[i] = fmt.Sprintf("%d", w)
	}
	t := table.New("abl-inflight", "AMAC probe cost versus circular-buffer width (Xeon, large uniform join)", "cycles/probe tuple", rows, []string{"AMAC"})
	t.AddNote("the Xeon core supports 10 outstanding L1-D misses; widths beyond it cannot add MLP")
	var tasks []func(*sweepEnv) joinResult
	for _, w := range widths {
		jc := joinConfig{
			machine:   memsim.XeonX5670(),
			spec:      relation.JoinSpec{BuildSize: sz.joinLarge, ProbeSize: sz.joinLarge, Seed: cfg.seed()},
			earlyExit: true,
			tech:      ops.AMAC,
			window:    w,
		}
		tasks = append(tasks, func(e *sweepEnv) joinResult { return runJoin(e, jc) })
	}
	for i, res := range runSweep(cfg, tasks) {
		t.Set(fmt.Sprintf("%d", widths[i]), "AMAC", res.probe.cyclesPerTuple())
	}
	return []*table.Table{t}
}

// ablRefill compares AMAC with and without the merged terminal/initial stage
// optimisation (Section 3.1, optimisation 1) on a skewed probe, where early
// exits are frequent and unfilled slots would otherwise waste MLP.
func ablRefill(cfg Config) []*table.Table {
	sz := cfg.sizes()
	rows := []string{"Immediate refill (paper)", "Deferred refill"}
	t := table.New("abl-refill", "AMAC slot refill policy (Xeon, skewed probe [1, 0])", "cycles/probe tuple", rows, []string{"AMAC"})

	for i, disable := range []bool{false, true} {
		j, out := cachedProbeJoin(relation.JoinSpec{
			BuildSize: sz.joinLarge, ProbeSize: sz.joinLarge, ZipfBuild: 1.0, Seed: cfg.seed(),
		}, 0)
		sys := memsim.MustSystem(memsim.XeonX5670())
		c := sys.NewCore()
		m := j.ProbeMachine(out, false)
		core.Run(c, m, core.Options{Width: cfg.window(), DisableImmediateRefill: disable})
		t.Set(rows[i], "AMAC", float64(c.Cycle())/float64(m.NumLookups()))
	}
	return []*table.Table{t}
}

// ablMSHR sweeps the number of per-core L1-D MSHRs, the hardware resource
// the paper identifies as the single-thread MLP ceiling.
func ablMSHR(cfg Config) []*table.Table {
	sz := cfg.sizes()
	mshrs := []int{2, 4, 8, 10, 16, 32}
	rows := make([]string, len(mshrs))
	for i, m := range mshrs {
		rows[i] = fmt.Sprintf("%d", m)
	}
	t := table.New("abl-mshr", "Probe cost versus L1-D MSHR count (Xeon-like core, large uniform join)", "cycles/probe tuple", rows, techColumns)
	t.AddNote("window fixed at 16 in-flight lookups so the MSHR file is the binding limit")
	type cell struct {
		row  string
		tech ops.Technique
	}
	var cells []cell
	var tasks []func(*sweepEnv) joinResult
	for _, n := range mshrs {
		machine := memsim.XeonX5670()
		machine.L1MSHRs = n
		for _, tech := range ops.Techniques {
			jc := joinConfig{
				machine:   machine,
				spec:      relation.JoinSpec{BuildSize: sz.joinLarge, ProbeSize: sz.joinLarge, Seed: cfg.seed()},
				earlyExit: true,
				tech:      tech,
				window:    16,
			}
			cells = append(cells, cell{fmt.Sprintf("%d", n), tech})
			tasks = append(tasks, func(e *sweepEnv) joinResult { return runJoin(e, jc) })
		}
	}
	for i, res := range runSweep(cfg, tasks) {
		t.Set(cells[i].row, cells[i].tech.String(), res.probe.cyclesPerTuple())
	}
	return []*table.Table{t}
}
