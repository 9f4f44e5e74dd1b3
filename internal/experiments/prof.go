package experiments

import (
	"fmt"

	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/prof"
	"amac/internal/relation"
	"amac/internal/serve"
	"amac/internal/table"
)

func init() {
	register(Descriptor{
		ID:    "profN",
		Title: "Cycle attribution: where every simulated cycle goes, per technique, batch and serving",
		Run:   profN,
		Uses:  UsesProfile,
	})
}

// profN accounts for every simulated cycle of the paper's decisive workload.
// The batch phase runs the skewed hash-join probe (the fig5b [1, 0]
// configuration) once per technique with the cycle-attribution profiler
// attached and reports (a) the category breakdown — compute, per-level
// exposed stall, TLB, MSHR pressure, idle — as percentages that sum to 100,
// and (b) the DRAM stall accounting: how much off-chip fill latency each
// technique kept off the critical path versus waited out, and the achieved
// MLP that implies. The serving phase replays the serveN comparison that
// motivates the "admit" frame: GP versus AMAC at 60% of AMAC's batch
// capacity, where GP's batch-boundary bubbles show up as idle charged under
// GP;admit while AMAC's residual idle is genuine queue emptiness.
//
// The experiment is a single serial cell (like obsN) and always profiles
// internally — cfg.Sinks.Profile only adds the export sink — so its tables
// are byte-identical with or without -profile/-flame, serial or -parallel.
// Attribution totals are reconciled against the core's cycle counter per
// run; a mismatch is an invariant violation and panics.
func profN(cfg Config) []*table.Table {
	sz := cfg.sizes()
	n := sz.joinLarge
	machine := memsim.XeonX5670()
	window := cfg.window()
	seed := cfg.seed()

	pr := cfg.Sinks.Profile
	if pr == nil {
		pr = prof.NewProfile()
	}

	// Private partitioned workload: profN is serial, but it must not disturb
	// the shared per-sweep workload images other experiments reuse.
	spec := relation.JoinSpec{BuildSize: n, ProbeSize: n, ZipfBuild: 1.0, Seed: seed}
	pj := newParallelJoin(spec, 1)
	out := ops.NewOutput(pj.Parts[0].Arena, false)
	out.Sequential = true

	catRows := make([]string, prof.NumCats)
	for i, c := range prof.Cats {
		catRows[i] = c.String()
	}
	cats := table.New("profN", "Cycle attribution by category, batch skewed-join probe (Xeon, % of core cycles)", "%", catRows, techColumns)
	stall := table.New("profN-stall", "DRAM stall accounting and achieved MLP, batch skewed-join probe (Xeon)", "", techColumns,
		[]string{"exposed c/t", "hidden c/t", "hidden frac", "MLP"})

	breakdowns := make(map[ops.Technique]prof.Breakdown, len(ops.Techniques))
	var amacCycles uint64
	for _, tech := range ops.Techniques {
		sys := memsim.MustSystem(machine.ShareLLC(1))
		core := sys.NewCore()
		sys.SetActiveThreads(1, core)
		warmTable(core, pj.Parts[0])
		core.ResetStats()
		cp := pr.Core(tech.String())
		core.SetProfiler(cp)
		out.Reset()
		pm := pj.ProbeMachine(0, out, true)
		ops.RunMachine(core, pm, tech, ops.Params{Window: window})
		core.SetProfiler(nil)

		b := cp.Breakdown()
		cycles := core.Stats().Cycles
		if got := b.Total(); got != cycles {
			panic(fmt.Sprintf("profN: %v attribution does not conserve: %d attributed vs %d core cycles", tech, got, cycles))
		}
		breakdowns[tech] = b
		if tech == ops.AMAC {
			amacCycles = cycles
		}

		tuples := float64(pm.NumLookups())
		for _, c := range prof.Cats {
			cats.Set(c.String(), tech.String(), 100*float64(b.Cats[c])/float64(cycles))
		}
		stall.Set(tech.String(), "exposed c/t", float64(b.Cats[prof.CatDRAM])/tuples)
		stall.Set(tech.String(), "hidden c/t", float64(b.Hidden[prof.CatDRAM])/tuples)
		stall.Set(tech.String(), "hidden frac", b.HiddenFraction(prof.CatDRAM))
		stall.Set(tech.String(), "MLP", b.AchievedMLP())
	}

	cats.AddNote("columns sum to 100%%: every core cycle is charged to exactly one category, and the per-technique totals reconcile exactly with the core's cycle counter (the profiler's conservation invariant)")
	cats.AddNote("|R| = |S| = 2^%d, Zipf(1.0) build keys, early-exit probe, window %d, scale %q, seed %d",
		log2(n), window, cfg.scale(), seed)
	bl, am := breakdowns[ops.Baseline], breakdowns[ops.AMAC]
	stall.AddNote("hidden frac = hidden/(hidden+exposed) DRAM fill latency; MLP = off-chip fill occupancy over exposed memory stall (DRAM + MSHR-full)")
	stall.AddNote("AMAC at width %d hides %.0f%% of its DRAM fill latency where the Baseline hides %.0f%%, at %.1fx the Baseline's achieved MLP",
		window, 100*am.HiddenFraction(prof.CatDRAM), 100*bl.HiddenFraction(prof.CatDRAM), mlpRatio(am, bl))

	// Serving phase: GP vs AMAC at 60% of AMAC's measured batch capacity —
	// low enough that GP's idle is admission bubbles, not saturation.
	serveTechs := []ops.Technique{ops.GP, ops.AMAC}
	serveCols := []string{"idle %", "admit idle %", "DRAM %"}
	srv := table.New("profN-serve", "Serving-phase idle attribution, GP vs AMAC at 60% load (Xeon, 1 worker)", "", techNames(serveTechs), serveCols)
	tuples := pj.Parts[0].Probe.Len()
	capacity := float64(tuples) / float64(amacCycles)
	period := 1 / (0.6 * capacity)
	arrivals := cachedArrivalSchedule("deterministic", period, tuples, seed+1)
	for _, tech := range serveTechs {
		sp := prof.NewProfile()
		out.Reset()
		serve.Run(serve.Options{
			Hardware:  machine,
			Technique: tech,
			Window:    window,
			Prepare:   func(w int, c *memsim.Core) { warmTable(c, pj.Parts[0]) },
			Profile:   sp,
		}, []serve.Worker[ops.ProbeState]{{
			Machine:  pj.ProbeMachine(0, out, true),
			Arrivals: arrivals,
		}})
		cp := sp.Cores()[0]
		pr.Core("serve " + tech.String()).Merge(cp)
		b := cp.Breakdown()
		total := float64(b.Total())
		srv.Set(tech.String(), "idle %", 100*float64(b.Cats[prof.CatIdle])/total)
		srv.Set(tech.String(), "admit idle %", 100*float64(cp.SumUnder("admit", prof.CatIdle))/total)
		srv.Set(tech.String(), "DRAM %", 100*float64(b.Cats[prof.CatDRAM])/total)
	}
	srv.AddNote("admit idle is idle charged under the engine's admission frame; idle %% == admit idle %% shows a core never idles mid-chain, only while polling an empty queue")
	srv.AddNote("deterministic arrivals at 60%% of AMAC's batch capacity (%.4f req/cycle): AMAC serves them with idle headroom to spare, while GP — its batch-boundary admission exposing the DRAM column's stall on every request — runs saturated at the same offered load", capacity)

	return []*table.Table{cats, stall, srv}
}

// mlpRatio is AMAC's achieved MLP over the Baseline's, guarded for the
// cache-resident tiny scale where nothing goes off-chip.
func mlpRatio(am, bl prof.Breakdown) float64 {
	if bl.AchievedMLP() == 0 {
		return 0
	}
	return am.AchievedMLP() / bl.AchievedMLP()
}

// techNames renders a technique list as row labels.
func techNames(techs []ops.Technique) []string {
	names := make([]string, len(techs))
	for i, t := range techs {
		names[i] = t.String()
	}
	return names
}
