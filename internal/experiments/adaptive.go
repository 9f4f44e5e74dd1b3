package experiments

import (
	"amac/internal/adapt"
	"amac/internal/arena"
	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/serve"
	"amac/internal/table"
)

func init() {
	register(Descriptor{
		ID:    "adaptN",
		Title: "Adaptive execution: online technique selection and dynamic AMAC width versus every static configuration",
		Run:   adaptN,
		Uses:  UsesServing | UsesWorkers | UsesSinks,
	})
}

// adaptStatic is one static configuration column of the adaptN tables.
type adaptStatic struct {
	label  string
	tech   ops.Technique
	window int
}

// adaptStatics are the static configurations the adaptive controller is
// judged against: the three prior techniques at the paper's recommended
// window, plus AMAC at three widths bracketing the Xeon's MSHR limit.
var adaptStatics = []adaptStatic{
	{"Baseline", ops.Baseline, 10},
	{"GP", ops.GP, 10},
	{"SPP", ops.SPP, 10},
	{"AMAC@5", ops.AMAC, 5},
	{"AMAC@10", ops.AMAC, 10},
	{"AMAC@15", ops.AMAC, 15},
}

const adaptiveCol = "Adaptive"

// adaptExec is one materialized adaptN workload: a cache-warming prepare
// step plus the two executors. The static and adaptive executors run the
// identical lookups over the identical structures, so cycle counts are
// directly comparable across columns.
type adaptExec struct {
	lookups  int
	prepare  func(c *memsim.Core)
	static   func(c *memsim.Core, tech ops.Technique, window int)
	adaptive func(c *memsim.Core, ctl *adapt.Controller)
}

// adaptConfig builds the controller configuration for the scale.
func adaptConfig(sz sizes) adapt.Config {
	return adapt.Config{SegmentLookups: sz.adaptSegment, ProbeLookups: sz.adaptProbe}
}

// adaptKey identifies one composite adaptN workload (shift join, hot→cold,
// operator mix) in a workloadSet, so each sweep worker materializes it once
// and the seven configuration columns of a row reuse it — the executors
// reset their output collectors per run, and the probed structures are
// read-only, exactly the probeJoin reuse contract.
type adaptKey struct {
	kind         string
	sizeA, sizeB int
	half         int
	seed         uint64
}

// adaptWorkload returns the set's cached composite workload for the key,
// materializing it on first use.
func (ws *workloadSet) adaptWorkload(key adaptKey, build func() adaptExec) adaptExec {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.adapts.get(key, build)
}

// adaptHCKey keys the cached hot→cold probe relation.
type adaptHCKey struct {
	domain int
	hot    int
	cold   int
	theta  float64
	seed   uint64
}

// adaptHotColdProbes caches the composite skewed-then-uniform probe
// relation (immutable, so one process-wide copy serves every sweep worker).
var adaptHotColdProbes = newOnceCache[adaptHCKey, *relation.Relation](4)

// cachedHotColdProbes returns a probe relation whose first hot entries are a
// Zipf(theta) draw over the domain — a handful of hot keys whose buckets
// stay cache-resident — and whose remaining cold entries are uniform.
func cachedHotColdProbes(domain, hot, cold int, theta float64, seed uint64) *relation.Relation {
	k := adaptHCKey{domain, hot, cold, theta, seed}
	return adaptHotColdProbes.get(k, func() *relation.Relation {
		keys := relation.ZipfKeys(hot, uint64(domain), theta, seed)
		keys = append(keys, relation.ZipfKeys(cold, uint64(domain), 0, seed+1)...)
		return relation.KeyedRelation("S", keys, 1<<40)
	})
}

// adaptN measures the adaptive execution subsystem against every static
// configuration on six workloads. Three are steady phases — an L2-resident
// dimension-table join (compute-bound, where the baseline's lean loop
// wins), a DRAM-resident join and a DRAM-resident BST search (memory-bound,
// where AMAC near the MSHR-limit width wins) — on which the acceptance bar
// is adaptive within 5% of the best static column. Three shift phase
// mid-run with no announcement: the probe input crosses from a dimension
// table to a DRAM-resident table, the probe keys go from hot (Zipf 2.0,
// cache-resident buckets) to cold (uniform), and the operator switches from
// a cache-resident BST to a DRAM-resident skip list. On those no static
// configuration is right for both halves, and the adaptive controller —
// which re-probes when its per-segment cost drifts out of the calibrated
// band — beats every one of them.
func adaptN(cfg Config) []*table.Table {
	sz := cfg.sizes()
	machine := memsim.XeonX5670()
	seed := cfg.seed()
	acfg := adaptConfig(sz)

	n := sz.joinLarge
	half := n / 2

	type workload struct {
		name string
		make func(e *sweepEnv) adaptExec
	}
	workloads := []workload{
		{"steady dim join (cache)", func(e *sweepEnv) adaptExec {
			return adaptJoinExec(e, relation.JoinSpec{BuildSize: sz.adaptDim, ProbeSize: n, Seed: seed})
		}},
		{"steady big join (DRAM)", func(e *sweepEnv) adaptExec {
			return adaptJoinExec(e, relation.JoinSpec{BuildSize: n, ProbeSize: n, Seed: seed})
		}},
		{"steady BST search (DRAM)", func(e *sweepEnv) adaptExec {
			return adaptBSTExec(e, 1<<sz.bstT4, seed)
		}},
		{"shift dim→big join", func(e *sweepEnv) adaptExec {
			return e.wl.adaptWorkload(adaptKey{"shiftjoin", sz.adaptDim, n, half, seed}, func() adaptExec {
				return adaptShiftJoinExec(sz.adaptDim, n, half, seed)
			})
		}},
		{"shift hot→cold probes", func(e *sweepEnv) adaptExec {
			return e.wl.adaptWorkload(adaptKey{"hotcold", n, n, half, seed}, func() adaptExec {
				return adaptHotColdExec(n, half, seed)
			})
		}},
		{"shift BST→skip list", func(e *sweepEnv) adaptExec {
			return e.wl.adaptWorkload(adaptKey{"mix", 1 << sz.adaptBST, 1 << sz.slT4, 0, seed}, func() adaptExec {
				return adaptMixExec(1<<sz.adaptBST, 1<<sz.slT4, seed)
			})
		}},
	}

	rows := make([]string, len(workloads))
	for i, w := range workloads {
		rows[i] = w.name
	}
	cols := make([]string, 0, len(adaptStatics)+1)
	for _, s := range adaptStatics {
		cols = append(cols, s.label)
	}
	cols = append(cols, adaptiveCol)

	main := table.New("adaptN", "Adaptive execution versus static configurations (Xeon)", "cycles/lookup", rows, cols)
	main.AddNote("steady rows: adaptive must be within 5%% of the best static column; shift rows: no static config is right for both phases and adaptive beats every one")
	main.AddNote("|S| = 2^%d probes per join row, dim table %d keys (L2-resident), scale %q, seed %d, segments %d/%d lookups",
		log2(n), sz.adaptDim, cfg.scale(), seed, sz.adaptSegment, sz.adaptProbe)
	diagCols := []string{"probe epochs", "switches", "AMAC share %", "min width", "max width", "resizes"}
	diag := table.New("adaptN-ctl", "Adaptive controller diagnostics per workload", "", rows, diagCols)
	diag.AddNote("AMAC share is the fraction of lookups the controller served with AMAC; widths are the slot-window extremes its AIMD policy visited")

	type cell struct {
		row int
		col int // index into adaptStatics; len(adaptStatics) = adaptive
	}
	type result struct {
		cycles  uint64
		lookups int
		info    *adapt.Info
	}
	var cells []cell
	var tasks []func(*sweepEnv) result
	for r, w := range workloads {
		for s := range adaptStatics {
			r, s, w := r, s, w
			cells = append(cells, cell{r, s})
			tasks = append(tasks, func(e *sweepEnv) result {
				ex := w.make(e)
				c := adaptCore(machine, ex)
				st := adaptStatics[s]
				ex.static(c, st.tech, st.window)
				return result{cycles: c.Cycle(), lookups: ex.lookups}
			})
		}
		r, w := r, w
		cells = append(cells, cell{r, len(adaptStatics)})
		tasks = append(tasks, func(e *sweepEnv) result {
			ex := w.make(e)
			c := adaptCore(machine, ex)
			ctl := adapt.NewController(acfg)
			ex.adaptive(c, ctl)
			info := ctl.Info()
			return result{cycles: c.Cycle(), lookups: ex.lookups, info: &info}
		})
	}

	for i, res := range runSweep(cfg, tasks) {
		cl := cells[i]
		row := rows[cl.row]
		col := cols[cl.col]
		main.Set(row, col, float64(res.cycles)/float64(res.lookups))
		if res.info != nil {
			diag.Set(row, "probe epochs", float64(res.info.Probes))
			diag.Set(row, "switches", float64(res.info.Switches))
			diag.Set(row, "AMAC share %", 100*res.info.Share(ops.AMAC))
			diag.Set(row, "min width", float64(res.info.Sched.MinWidth))
			diag.Set(row, "max width", float64(res.info.Sched.MaxWidth))
			diag.Set(row, "resizes", float64(res.info.Sched.WidthChanges))
		}
	}

	return []*table.Table{main, diag, adaptServeTable(cfg, machine)}
}

// adaptCore builds a fresh measured core for one cell: private socket,
// prepare (cache warm-up), counters reset.
func adaptCore(machine memsim.Config, ex adaptExec) *memsim.Core {
	sys := memsim.MustSystem(machine)
	c := sys.NewCore()
	if ex.prepare != nil {
		ex.prepare(c)
	}
	c.ResetStats()
	return c
}

// adaptJoinExec materializes a steady probe-only join from the sweep
// worker's cache.
func adaptJoinExec(e *sweepEnv, spec relation.JoinSpec) adaptExec {
	j, out := e.wl.probeJoin(spec, 0)
	return adaptExec{
		lookups: j.Probe.Len(),
		prepare: func(c *memsim.Core) { warmTable(c, j) },
		static: func(c *memsim.Core, tech ops.Technique, window int) {
			out.Reset()
			ops.RunMachine(c, j.ProbeMachine(out, true), tech, ops.Params{Window: window})
		},
		adaptive: func(c *memsim.Core, ctl *adapt.Controller) {
			out.Reset()
			adapt.Run(c, j.ProbeMachine(out, true), ctl)
		},
	}
}

// adaptBSTExec materializes a steady tree-search workload from the sweep
// worker's cache.
func adaptBSTExec(e *sweepEnv, size int, seed uint64) adaptExec {
	w, out := e.wl.bstWorkload(size, seed)
	return adaptExec{
		lookups: w.Probe.Len(),
		static: func(c *memsim.Core, tech ops.Technique, window int) {
			out.Reset()
			ops.RunMachine(c, w.SearchMachine(out), tech, ops.Params{Window: window})
		},
		adaptive: func(c *memsim.Core, ctl *adapt.Controller) {
			out.Reset()
			adapt.Run(c, w.SearchMachine(out), ctl)
		},
	}
}

// adaptShiftJoinExec materializes the small→large composite join: the first
// half of the probes hits an L2-resident dimension table, the second half a
// DRAM-resident table, both living in one arena (separate arenas would
// alias in the cache model) and probed through one exec.Concat machine so
// engines see a single input whose character shifts mid-batch.
func adaptShiftJoinExec(dimSize, bigSize, half int, seed uint64) adaptExec {
	dimBuild, dimProbe := cachedJoinRelations(relation.JoinSpec{BuildSize: dimSize, ProbeSize: half, Seed: seed + 10})
	bigBuild, bigProbe := cachedJoinRelations(relation.JoinSpec{BuildSize: bigSize, ProbeSize: half, Seed: seed + 11})
	a := arena.New()
	dim := ops.NewHashJoinInArena(a, dimBuild, dimProbe, 0)
	dim.PrebuildRaw()
	big := ops.NewHashJoinInArena(a, bigBuild, bigProbe, 0)
	big.PrebuildRaw()
	outDim := ops.NewOutput(a, false)
	outBig := ops.NewOutput(a, false)
	machineOf := func() *exec.Concat[ops.ProbeState] {
		return exec.NewConcat[ops.ProbeState](dim.ProbeMachine(outDim, true), big.ProbeMachine(outBig, true))
	}
	return adaptExec{
		lookups: half * 2,
		prepare: func(c *memsim.Core) {
			// Big table first so the dimension table ends up fully resident.
			warmTable(c, big)
			warmTable(c, dim)
		},
		static: func(c *memsim.Core, tech ops.Technique, window int) {
			outDim.Reset()
			outBig.Reset()
			ops.RunMachine(c, machineOf(), tech, ops.Params{Window: window})
		},
		adaptive: func(c *memsim.Core, ctl *adapt.Controller) {
			outDim.Reset()
			outBig.Reset()
			adapt.Run(c, machineOf(), ctl)
		},
	}
}

// adaptHotColdExec materializes the hot→cold probe workload: one
// DRAM-resident join whose first half of probe keys is a Zipf(2.0) draw —
// a couple hundred hot buckets that stay L1-resident once touched — and
// whose second half is uniform, so the per-probe cost jumps an order of
// magnitude at the boundary with no structural change at all.
func adaptHotColdExec(domain, half int, seed uint64) adaptExec {
	build, _ := cachedIndexRelations(domain, seed+20)
	probes := cachedHotColdProbes(domain, half, half, 2.0, seed+21)
	j := ops.NewHashJoin(build, probes)
	j.PrebuildRaw()
	out := ops.NewOutput(j.Arena, false)
	return adaptExec{
		lookups: probes.Len(),
		prepare: func(c *memsim.Core) { warmTable(c, j) },
		static: func(c *memsim.Core, tech ops.Technique, window int) {
			out.Reset()
			ops.RunMachine(c, j.ProbeMachine(out, true), tech, ops.Params{Window: window})
		},
		adaptive: func(c *memsim.Core, ctl *adapt.Controller) {
			out.Reset()
			adapt.Run(c, j.ProbeMachine(out, true), ctl)
		},
	}
}

// adaptMixExec materializes the BST→skip list operator mix: a cache-resident
// tree searched first, then a DRAM-resident skip list, in one arena. The
// static columns run both machines under one fixed configuration; the
// adaptive column carries one controller across both runs, so the operator
// boundary is detected by the same drift machinery as an in-machine shift.
func adaptMixExec(bstSize, slSize int, seed uint64) adaptExec {
	bstBuild, bstProbe := cachedIndexRelations(bstSize, seed+30)
	slBuild, slProbe := cachedIndexRelations(slSize, seed+31)
	a := arena.New()
	bw := ops.NewBSTWorkloadInArena(a, bstBuild, bstProbe)
	sw := ops.NewSkipListWorkloadInArena(a, slBuild, slProbe)
	sw.PrebuildRaw(seed + 32)
	outB := ops.NewOutput(a, false)
	outS := ops.NewOutput(a, false)
	return adaptExec{
		lookups: bstProbe.Len() + slProbe.Len(),
		prepare: func(c *memsim.Core) {
			// Warm the small tree by searching it once uncharged-ish; the
			// caller resets the counters afterwards.
			ops.RunMachine(c, bw.SearchMachine(outB), ops.Baseline, ops.Params{})
			outB.Reset()
		},
		static: func(c *memsim.Core, tech ops.Technique, window int) {
			outB.Reset()
			outS.Reset()
			p := ops.Params{Window: window}
			ops.RunMachine(c, bw.SearchMachine(outB), tech, p)
			ops.RunMachine(c, sw.SearchMachine(outS), tech, p)
		},
		adaptive: func(c *memsim.Core, ctl *adapt.Controller) {
			outB.Reset()
			outS.Reset()
			adapt.Run(c, bw.SearchMachine(outB), ctl)
			adapt.Run(c, sw.SearchMachine(outS), ctl)
		},
	}
}

// adaptServeTable measures the serve-integrated per-shard controller: the
// serveN workload (skewed build keys) under bursty arrivals at moderate and
// near-saturation load, p99 latency per engine with the adaptive controller
// as the last column. The controller settles on AMAC — the throughput
// matches — but its probe leases serve real requests with the slower
// candidates under live load, and the requests queued behind those leases
// are exactly what a p99 measures: adaptive lands well below every
// batch-boundary static and above a clairvoyant static AMAC. That
// exploration tax is the honest price of not knowing the winner in
// advance (an SLO-aware probe policy is a ROADMAP item).
func adaptServeTable(cfg Config, machine memsim.Config) *table.Table {
	sz := cfg.sizes()
	n := sz.joinLarge
	workers := 1
	if cfg.Workers > 0 {
		workers = cfg.Workers
	}
	loads := []float64{0.6, 0.9}
	acfg := adaptConfig(sz)

	spec := relation.JoinSpec{BuildSize: n, ProbeSize: n, ZipfBuild: 1.0, Seed: cfg.seed()}
	runs := 1 + len(loads)*(len(ops.Techniques)+1)
	sj := defaultWorkloads.servingJoin(spec, workers, runs)
	capacity := calibrateServeCapacity(sj, machine, workers, cfg.window())

	// Bursty traffic is the default (the adversarial shape for batch-boundary
	// refill AND for probe timing); -arrivals and -qcap override as in serveN.
	serveCfg := cfg
	if serveCfg.Arrivals == "" {
		serveCfg.Arrivals = "bursty"
	}
	policy := queuePolicy(cfg)

	rows := make([]string, len(loads))
	for i, l := range loads {
		rows[i] = loadLabel(l)
	}
	cols := append(append([]string(nil), techColumns...), adaptiveCol)
	t := table.New("adaptN-serve", "Adaptive serving: p99 latency per engine (Xeon)", "kcycles", rows, cols)
	t.AddNote("per-shard adaptive controllers retune on cost drift and queue-depth jumps; %s arrivals, %s queue; offered load is a fraction of AMAC's batch capacity (%.3f req/cycle)",
		arrivalsName(serveCfg), policyLabel(policy, cfg.QueueCap), capacity)
	t.AddNote("adaptive settles on AMAC but pays an exploration tax in the tail: probe leases serve requests with the slower candidates under live load, so its p99 sits well below every batch-boundary static and above a clairvoyant static AMAC")

	type cell struct {
		load float64
		col  string
	}
	var cells []cell
	var tasks []func(*sweepEnv) serve.Result
	for _, load := range loads {
		for _, tech := range ops.Techniques {
			load, tech, runIdx := load, tech, 1+len(cells)
			cells = append(cells, cell{load, tech.String()})
			tasks = append(tasks, func(e *sweepEnv) serve.Result {
				sj := e.wl.servingJoin(spec, workers, runs)
				return runServe(serveCfg, sj, runIdx, machine, workers, tech, load, capacity, policy, nil, obs.Sinks{})
			})
		}
		load, runIdx := load, 1+len(cells)
		cells = append(cells, cell{load, adaptiveCol})
		tasks = append(tasks, func(e *sweepEnv) serve.Result {
			sj := e.wl.servingJoin(spec, workers, runs)
			// The adaptive cell at 90% load is adaptN's designated cell:
			// probe epochs, technique switches and width moves all land on
			// one deterministic export.
			var sinks obs.Sinks
			if load == 0.9 {
				sinks = cfg.Sinks
			}
			return runServe(serveCfg, sj, runIdx, machine, workers, ops.AMAC, load, capacity, policy, &acfg, sinks)
		})
	}
	for i, res := range runSweep(cfg, tasks) {
		t.Set(loadLabel(cells[i].load), cells[i].col, float64(res.Latency.P99())/1000)
	}
	return t
}
