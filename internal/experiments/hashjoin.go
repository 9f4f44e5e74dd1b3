package experiments

import (
	"fmt"

	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/table"
)

func init() {
	register(Descriptor{ID: "fig3", Title: "Motivation: normalized cycles per lookup under uniform, non-uniform and skewed traversals (Xeon)", Run: fig3})
	register(Descriptor{ID: "table3", Title: "Execution profile of the uniform small join (instructions and cycles per tuple, Xeon)", Run: table3})
	register(Descriptor{ID: "fig5a", Title: "Hash join with small build relation: cycles per output tuple under skew (Xeon)", Run: fig5a})
	register(Descriptor{ID: "fig5b", Title: "Hash join with equally sized relations: cycles per output tuple under skew (Xeon)", Run: fig5b})
	register(Descriptor{ID: "fig6", Title: "Probe sensitivity to the number of in-flight lookups (Xeon, large join)", Run: fig6})
	register(Descriptor{ID: "fig7", Title: "Probe throughput scalability on Xeon (uniform and skewed keys)", Run: fig7})
	register(Descriptor{ID: "fig8", Title: "Probe throughput scalability on SPARC T4 (uniform and skewed keys)", Run: fig8})
	register(Descriptor{ID: "table4", Title: "Probe scalability profiling on Xeon: IPC and L1-D MSHR hits per kilo-instruction", Run: table4})
	register(Descriptor{ID: "fig12a", Title: "Hash join on SPARC T4: cycles per output tuple under skew", Run: fig12a})
	register(Descriptor{ID: "scaleN", Title: "Sharded multi-core probe: aggregate throughput and speedup versus worker count (Xeon, partitioned join)", Run: scaleN, Uses: UsesWorkers})
}

// fig3SkewFactor is the Zipf factor of the motivation experiment's skewed
// traversal (Section 2.2.2).
const fig3SkewFactor = 0.75

// fig3 reproduces Figure 3: hash probes over a table provisioned with four
// nodes per bucket, under three traversal regimes, normalized to the
// baseline's uniform-traversal cost.
func fig3(cfg Config) []*table.Table {
	sz := cfg.sizes()
	n := sz.joinLarge
	rows := []string{"Uniform traversals", "Non-uniform traversals", "Skewed traversals"}
	t := table.New("fig3", "Normalized cycles per lookup tuple (baseline uniform = 1)", "x", rows, techColumns)
	t.AddNote("|R| = |S| = 2^%d tuples, 4 nodes per bucket, scale %q", log2(n), cfg.scale())

	type variant struct {
		label     string
		zipfBuild float64
		earlyExit bool
	}
	variants := []variant{
		{"Uniform traversals", 0, false},
		{"Non-uniform traversals", 0, true},
		{"Skewed traversals", fig3SkewFactor, false},
	}

	type cell struct {
		v    variant
		tech ops.Technique
	}
	var cells []cell
	var tasks []func(*sweepEnv) joinResult
	for _, v := range variants {
		for _, tech := range ops.Techniques {
			jc := joinConfig{
				machine:   memsim.XeonX5670(),
				spec:      relation.JoinSpec{BuildSize: n, ProbeSize: n, ZipfBuild: v.zipfBuild, Seed: cfg.seed()},
				buckets:   n / 8, // four two-tuple nodes per bucket
				earlyExit: v.earlyExit,
				provision: 5, // the common case is four node visits (Section 2.2.2)
				tech:      tech,
				window:    cfg.window(),
			}
			cells = append(cells, cell{v, tech})
			tasks = append(tasks, func(e *sweepEnv) joinResult { return runJoin(e, jc) })
		}
	}

	var baselineUniform float64
	for i, res := range runSweep(cfg, tasks) {
		c := cells[i]
		cpt := res.probe.cyclesPerTuple()
		if c.v.label == "Uniform traversals" && c.tech == ops.Baseline {
			baselineUniform = cpt
		}
		t.Set(c.v.label, c.tech.String(), cpt)
	}
	if baselineUniform > 0 {
		for i := range t.Values {
			for j := range t.Values[i] {
				t.Values[i][j] /= baselineUniform
			}
		}
	}
	return []*table.Table{t}
}

// table3 reproduces Table 3: instructions per tuple and cycles per tuple for
// the uniform join with unequal table sizes (the LLC-resident build table).
func table3(cfg Config) []*table.Table {
	sz := cfg.sizes()
	t := table.New("table3", "Uniform join with unequal table sizes (2MB-class build)", "per probe tuple",
		[]string{"Instructions per Tuple", "Cycles per Tuple"}, techColumns)
	t.AddNote("|R| = 2^%d, |S| = 2^%d, scale %q", log2(sz.joinSmall), log2(sz.joinLarge), cfg.scale())
	var tasks []func(*sweepEnv) joinResult
	for _, tech := range ops.Techniques {
		jc := joinConfig{
			machine:   memsim.XeonX5670(),
			spec:      relation.JoinSpec{BuildSize: sz.joinSmall, ProbeSize: sz.joinLarge, Seed: cfg.seed()},
			earlyExit: true,
			tech:      tech,
			window:    cfg.window(),
		}
		tasks = append(tasks, func(e *sweepEnv) joinResult { return runJoin(e, jc) })
	}
	for i, res := range runSweep(cfg, tasks) {
		tech := ops.Techniques[i]
		t.Set("Instructions per Tuple", tech.String(), res.probe.instrPerTuple())
		t.Set("Cycles per Tuple", tech.String(), res.probe.cyclesPerTuple())
	}
	return []*table.Table{t}
}

// joinSkews are the [Z_R, Z_S] configurations of Figure 5 and Figure 12a.
var joinSkews = [][2]float64{{0, 0}, {0.5, 0}, {1, 0}, {0.5, 0.5}, {1, 1}}

// runFig5 measures build and probe cycles per output tuple for every skew
// configuration and technique on one machine.
func runFig5(cfg Config, id, title string, machine memsim.Config, buildSize, probeSize int) []*table.Table {
	rows := make([]string, len(joinSkews))
	for i, s := range joinSkews {
		rows[i] = skewLabel(s[0], s[1])
	}
	total := table.New(id, title+" (build + probe)", "cycles/output tuple", rows, techColumns)
	buildT := table.New(id+"-build", title+" (build phase only)", "cycles/output tuple", rows, techColumns)
	probeT := table.New(id+"-probe", title+" (probe phase only)", "cycles/output tuple", rows, techColumns)
	total.AddNote("|R| = 2^%d, |S| = 2^%d, scale %q; output tuples = probe tuples", log2(buildSize), log2(probeSize), cfg.scale())

	type cell struct {
		row  string
		tech ops.Technique
	}
	var cells []cell
	var tasks []func(*sweepEnv) joinResult
	for _, s := range joinSkews {
		for _, tech := range ops.Techniques {
			jc := joinConfig{
				machine: machine,
				spec:    relation.JoinSpec{BuildSize: buildSize, ProbeSize: probeSize, ZipfBuild: s[0], ZipfProbe: s[1], Seed: cfg.seed()},
				// The paper's probe stages (Table 1) terminate at the first
				// match; under build-key skew the irregularity comes from
				// the long chains a probe must traverse before finding its
				// match (or the chain end), not from emitting every match.
				earlyExit:   true,
				tech:        tech,
				window:      cfg.window(),
				chargeBuild: true,
			}
			cells = append(cells, cell{skewLabel(s[0], s[1]), tech})
			tasks = append(tasks, func(e *sweepEnv) joinResult { return runJoin(e, jc) })
		}
	}
	for i, res := range runSweep(cfg, tasks) {
		c := cells[i]
		buildPerOut := float64(res.build.cycles) / float64(res.probe.tuples)
		probePerOut := res.probe.cyclesPerTuple()
		buildT.Set(c.row, c.tech.String(), buildPerOut)
		probeT.Set(c.row, c.tech.String(), probePerOut)
		total.Set(c.row, c.tech.String(), buildPerOut+probePerOut)
	}
	return []*table.Table{total, buildT, probeT}
}

func fig5a(cfg Config) []*table.Table {
	sz := cfg.sizes()
	return runFig5(cfg, "fig5a", "Small build relation join", memsim.XeonX5670(), sz.joinSmall, sz.joinLarge)
}

func fig5b(cfg Config) []*table.Table {
	sz := cfg.sizes()
	return runFig5(cfg, "fig5b", "Equally sized relations join", memsim.XeonX5670(), sz.joinLarge, sz.joinLarge)
}

// fig6 reproduces Figure 6: probe cycles per tuple as a function of the
// number of in-flight lookups, for GP, SPP and AMAC, under the five skew
// configurations. One table per technique (6a, 6b, 6c).
func fig6(cfg Config) []*table.Table {
	sz := cfg.sizes()
	cols := make([]string, len(joinSkews))
	for i, s := range joinSkews {
		cols[i] = skewLabel(s[0], s[1])
	}
	rows := make([]string, len(sz.windows))
	for i, w := range sz.windows {
		rows[i] = fmt.Sprintf("%d", w)
	}

	type cell struct {
		table int
		row   string
		col   string
	}
	var out []*table.Table
	var cells []cell
	var tasks []func(*sweepEnv) joinResult
	for i, tech := range ops.PrefetchingTechniques {
		sub := string(rune('a' + i))
		t := table.New("fig6"+sub, fmt.Sprintf("Probe sensitivity to in-flight lookups: %s", tech), "cycles/probe tuple", rows, cols)
		t.AddNote("rows: number of in-flight lookups; |R| = |S| = 2^%d, scale %q", log2(sz.joinLarge), cfg.scale())
		out = append(out, t)
		for _, s := range joinSkews {
			for _, w := range sz.windows {
				jc := joinConfig{
					machine:   memsim.XeonX5670(),
					spec:      relation.JoinSpec{BuildSize: sz.joinLarge, ProbeSize: sz.joinLarge, ZipfBuild: s[0], ZipfProbe: s[1], Seed: cfg.seed()},
					earlyExit: true, // first-match probe, as in the paper's Table 1
					tech:      tech,
					window:    w,
				}
				cells = append(cells, cell{i, fmt.Sprintf("%d", w), skewLabel(s[0], s[1])})
				tasks = append(tasks, func(e *sweepEnv) joinResult { return runJoin(e, jc) })
			}
		}
	}
	for i, res := range runSweep(cfg, tasks) {
		c := cells[i]
		out[c.table].Set(c.row, c.col, res.probe.cyclesPerTuple())
	}
	return out
}

// scalabilitySkews are the [Z_R, Z_S] configurations of Figures 7 and 8.
var scalabilitySkews = [][2]float64{{0, 0}, {0.5, 0.5}, {1, 1}}

// runScalability measures probe throughput versus thread count.
func runScalability(cfg Config, id, title string, machine memsim.Config, threads []int, joinSize int) []*table.Table {
	type cell struct {
		table   int
		row     string
		tech    ops.Technique
		threads int
	}
	var out []*table.Table
	var cells []cell
	var tasks []func(*sweepEnv) joinResult
	for i, s := range scalabilitySkews {
		sub := string(rune('a' + i))
		rows := make([]string, len(threads))
		for k, th := range threads {
			rows[k] = fmt.Sprintf("%d", th)
		}
		t := table.New(id+sub, fmt.Sprintf("%s, keys %s", title, skewLabel(s[0], s[1])), "M tuples/s", rows, techColumns)
		t.AddNote("rows: hardware threads; |R| = |S| = 2^%d, scale %q", log2(joinSize), cfg.scale())
		out = append(out, t)
		for _, th := range threads {
			for _, tech := range ops.Techniques {
				jc := joinConfig{
					machine:   machine,
					spec:      relation.JoinSpec{BuildSize: joinSize, ProbeSize: joinSize, ZipfBuild: s[0], ZipfProbe: s[1], Seed: cfg.seed()},
					earlyExit: true, // first-match probe, as in the paper's Table 1
					tech:      tech,
					window:    cfg.window(),
					threads:   th,
				}
				cells = append(cells, cell{i, fmt.Sprintf("%d", th), tech, th})
				tasks = append(tasks, func(e *sweepEnv) joinResult { return runJoin(e, jc) })
			}
		}
	}
	for i, res := range runSweep(cfg, tasks) {
		c := cells[i]
		out[c.table].Set(c.row, c.tech.String(), res.probe.throughputMTuplesPerSec(machine.FreqHz, c.threads))
	}
	return out
}

func fig7(cfg Config) []*table.Table {
	sz := cfg.sizes()
	return runScalability(cfg, "fig7", "Hash table probe scalability on Xeon x5670", memsim.XeonX5670(), sz.xeonThreads, sz.joinLarge)
}

func fig8(cfg Config) []*table.Table {
	sz := cfg.sizes()
	return runScalability(cfg, "fig8", "Hash table probe scalability on SPARC T4", memsim.SPARCT4(), sz.t4Threads, sz.joinLarge)
}

// scaleN measures the sharded multi-core execution layer: the probe relation
// is hash-partitioned across W workers, each worker runs its own engine
// instance over its private table on a private core (concurrently, on real
// goroutines), and the aggregate throughput is total tuples over the slowest
// worker's time. Unlike fig7/fig8 — which extrapolate from one simulated
// representative thread — every worker here is simulated in full, so load
// imbalance across partitions shows up in the merged numbers. Uniform unique
// build keys keep the first-match output independent of the partition count.
func scaleN(cfg Config) []*table.Table {
	sz := cfg.sizes()
	n := sz.joinLarge
	machine := memsim.XeonX5670()
	counts := cfg.workerCounts()
	rows := make([]string, len(counts))
	for i, w := range counts {
		rows[i] = fmt.Sprintf("%d", w)
	}
	tput := table.New("scaleN", "Partitioned probe: aggregate throughput versus workers (Xeon)", "M tuples/s", rows, techColumns)
	speed := table.New("scaleN-speedup", "Partitioned probe: speedup versus one worker (Xeon)", "x", rows, techColumns)
	tput.AddNote("rows: workers, each simulated on a private core with an LLC capacity share; |R| = |S| = 2^%d, scale %q", log2(n), cfg.scale())
	tput.AddNote("throughput = total probe tuples / slowest worker's elapsed time")
	if counts[len(counts)-1] > machine.HardwareThreads() {
		tput.AddNote("rows beyond the socket's %d hardware threads time-slice the surplus workers (elapsed x W/%d)",
			machine.HardwareThreads(), machine.HardwareThreads())
	}

	spec := relation.JoinSpec{BuildSize: n, ProbeSize: n, Seed: cfg.seed()}
	// One task per worker count: each task materializes its own partitioned
	// workload (fresh per count, as before) and probes it read-only with
	// every technique in the fixed column order, so tasks are independent
	// and can fan out across sweep workers.
	var tasks []func(*sweepEnv) []float64
	for _, w := range counts {
		w := w
		tasks = append(tasks, func(*sweepEnv) []float64 {
			pj := newParallelJoin(spec, w)
			tputs := make([]float64, len(ops.Techniques))
			for t, tech := range ops.Techniques {
				res := runParallelProbe(pj, parallelJoinConfig{
					machine:   machine,
					workers:   w,
					tech:      tech,
					window:    cfg.window(),
					earlyExit: true, // unique build keys: first match == only match
				})
				tputs[t] = res.aggregateThroughputMTuplesPerSec(machine.FreqHz)
			}
			return tputs
		})
	}
	base := make(map[ops.Technique]float64)
	for i, tputs := range runSweep(cfg, tasks) {
		w := counts[i]
		for t, tech := range ops.Techniques {
			th := tputs[t]
			if _, ok := base[tech]; !ok {
				base[tech] = th
			}
			tput.Set(fmt.Sprintf("%d", w), tech.String(), th)
			if base[tech] > 0 {
				speed.Set(fmt.Sprintf("%d", w), tech.String(), th/base[tech])
			}
		}
	}
	return []*table.Table{tput, speed}
}

// table4 reproduces Table 4: IPC and MSHR hits per kilo-instruction of the
// AMAC probe phase while increasing the thread count, including the
// two-socket "2+2" configuration that relieves the LLC queue contention.
func table4(cfg Config) []*table.Table {
	sz := cfg.sizes()
	cols := []string{"1", "2", "4", "6", "2+2"}
	t := table.New("table4", "Hash join probe scalability profiling on Xeon x5670 (AMAC)", "",
		[]string{"IPC", "L1-D MSHR Hits (per k-inst.)", "MSHR hit wait cycles (per k-inst.)"}, cols)
	t.AddNote("columns: threads; 2+2 = four threads over two sockets; |R| = |S| = 2^%d, scale %q", log2(sz.joinLarge), cfg.scale())

	type point struct {
		label            string
		threads          int
		threadsPerSocket int
	}
	points := []point{
		{"1", 1, 1}, {"2", 2, 2}, {"4", 4, 4}, {"6", 6, 6}, {"2+2", 4, 2},
	}
	var tasks []func(*sweepEnv) joinResult
	for _, p := range points {
		jc := joinConfig{
			machine:          memsim.XeonX5670(),
			spec:             relation.JoinSpec{BuildSize: sz.joinLarge, ProbeSize: sz.joinLarge, Seed: cfg.seed()},
			earlyExit:        true,
			tech:             ops.AMAC,
			window:           cfg.window(),
			threads:          p.threads,
			threadsPerSocket: p.threadsPerSocket,
		}
		tasks = append(tasks, func(e *sweepEnv) joinResult { return runJoin(e, jc) })
	}
	for i, res := range runSweep(cfg, tasks) {
		p := points[i]
		t.Set("IPC", p.label, res.probe.stats.IPC())
		t.Set("L1-D MSHR Hits (per k-inst.)", p.label, res.probe.stats.MSHRHitsPerKiloInstr())
		t.Set("MSHR hit wait cycles (per k-inst.)", p.label,
			1000*float64(res.probe.stats.MSHRHitWaitCycles)/float64(res.probe.stats.Instructions))
	}
	t.AddNote("the wait-cycles row is the simulator's analogue of rising MSHR-hit counts on real hardware: " +
		"prefetches that arrive late make demand loads wait on the outstanding miss")
	return []*table.Table{t}
}

// fig12a reproduces the hash join portion of Figure 12 on the SPARC T4
// (large relations only; the T4 drops prefetches that hit on chip, so the
// paper does not evaluate the small join there).
func fig12a(cfg Config) []*table.Table {
	sz := cfg.sizes()
	tables := runFig5(cfg, "fig12a", "Hash join on SPARC T4 (2GB-class relations)", memsim.SPARCT4(), sz.joinLarge, sz.joinLarge)
	// Figure 12a reports only the [0,0], [.5,.5] and [1,1] configurations.
	keep := map[string]bool{
		skewLabel(0, 0): true, skewLabel(0.5, 0.5): true, skewLabel(1, 1): true,
	}
	for _, t := range tables {
		filterRows(t, keep)
	}
	return tables
}

// filterRows drops rows whose label is not in keep.
func filterRows(t *table.Table, keep map[string]bool) {
	var rows []string
	var vals [][]float64
	for i, r := range t.RowLabels {
		if keep[r] {
			rows = append(rows, r)
			vals = append(vals, t.Values[i])
		}
	}
	t.RowLabels = rows
	t.Values = vals
}

// log2 returns the floor of log2(n), used for labelling dataset sizes.
func log2(n int) int {
	l := 0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return l
}
