package experiments

import (
	"fmt"

	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
)

// phaseResult captures one measured operator phase on one representative
// hardware thread.
type phaseResult struct {
	cycles uint64
	stats  memsim.Stats
	tuples int
	// outputCount is the number of materialized results (probe phases).
	outputCount uint64
}

// cyclesPerTuple is the paper's main metric.
func (r phaseResult) cyclesPerTuple() float64 {
	if r.tuples == 0 {
		return 0
	}
	return float64(r.cycles) / float64(r.tuples)
}

// instrPerTuple reproduces the first row of the paper's Table 3.
func (r phaseResult) instrPerTuple() float64 {
	if r.tuples == 0 {
		return 0
	}
	return float64(r.stats.Instructions) / float64(r.tuples)
}

// throughputMTuplesPerSec converts one thread's partition time into the
// aggregate probe throughput of `threads` identical threads, the metric of
// Figures 7 and 8.
func (r phaseResult) throughputMTuplesPerSec(freqHz float64, threads int) float64 {
	if r.cycles == 0 {
		return 0
	}
	seconds := float64(r.cycles) / freqHz
	return float64(r.tuples) * float64(threads) / seconds / 1e6
}

// joinConfig describes one hash-join measurement.
type joinConfig struct {
	machine memsim.Config
	spec    relation.JoinSpec
	// buckets overrides the table's bucket count (0 = |R|/2, the
	// Balkesen-style sizing; Figure 3 uses |R|/8 for four-node chains).
	buckets int
	// earlyExit terminates probes on the first match (unique build keys).
	earlyExit bool
	// provision overrides the stage count GP and SPP provision for the
	// probe (0 keeps the operator default of 2: one node per bucket). The
	// paper tunes this per experiment.
	provision int
	tech      ops.Technique
	window    int
	// chargeBuild measures the build phase with the same technique before
	// the probe phase (Figure 5); otherwise the table is pre-built outside
	// the measurement and only its cache footprint is warmed.
	chargeBuild bool
	// threads is the number of software threads assumed active; the probe
	// relation is partitioned across them and one representative thread is
	// simulated. threadsPerSocket (0 = all on one socket) controls how many
	// of them share an LLC and off-chip queue.
	threads          int
	threadsPerSocket int
}

// joinResult is the outcome of runJoin.
type joinResult struct {
	build phaseResult
	probe phaseResult
}

// runJoin generates the relations, materializes the workload, and measures
// the requested phases. The workload comes from the sweep worker's private
// set (probe-only runs) or is rebuilt fresh from the shared relations
// (charged builds mutate the table), so concurrent sweep points never touch
// one arena.
func runJoin(e *sweepEnv, cfg joinConfig) joinResult {
	if cfg.threads <= 0 {
		cfg.threads = 1
	}
	if cfg.threadsPerSocket <= 0 {
		cfg.threadsPerSocket = cfg.threads
	}
	if cfg.window <= 0 {
		cfg.window = ops.DefaultWindow
	}

	// The measured phases dictate what may be reused: a charged build phase
	// mutates the table, so it materializes a fresh workload from the cached
	// relations; a probe-only run reuses the whole materialized image (table,
	// inputs and output buffer are read-only or reset), which a fresh
	// construction would reproduce byte-for-byte anyway.
	var (
		j   *ops.HashJoin
		out *ops.Output
	)
	if cfg.chargeBuild {
		build, probe := cachedJoinRelations(cfg.spec)
		if cfg.buckets > 0 {
			j = ops.NewHashJoinWithBuckets(build, probe, cfg.buckets)
		} else {
			j = ops.NewHashJoin(build, probe)
		}
	} else {
		j, out = e.wl.probeJoin(cfg.spec, cfg.buckets)
	}

	sys := memsim.MustSystem(cfg.machine)
	core := sys.NewCore()
	sys.SetActiveThreads(cfg.threadsPerSocket, core)

	var res joinResult

	if cfg.chargeBuild {
		m := j.BuildMachine()
		ops.RunMachine(core, m, cfg.tech, ops.Params{Window: cfg.window})
		res.build = phaseResult{cycles: core.Cycle(), stats: core.Stats(), tuples: j.Build.Len()}
		out = ops.NewOutput(j.Arena, false)
	} else {
		warmTable(core, j)
	}
	core.ResetStats()

	pm := j.ProbeMachine(out, cfg.earlyExit)
	pm.Provision = cfg.provision
	pm.Limit = j.Probe.Len() / cfg.threads
	ops.RunMachine(core, pm, cfg.tech, ops.Params{Window: cfg.window})
	res.probe = phaseResult{
		cycles:      core.Cycle(),
		stats:       core.Stats(),
		tuples:      pm.NumLookups(),
		outputCount: out.Count,
	}
	return res
}

// warmTable installs the hash table's most recently written lines into the
// hierarchy, approximating the cache state the probe phase would inherit
// from a real build phase that ran on the same core. Only as much of the
// table as fits in the LLC is touched (most recent lines last, so they are
// the most recently used).
func warmTable(core *memsim.Core, j *ops.HashJoin) {
	llc := uint64(core.Config().L3.SizeBytes)
	total := j.Table.NumBuckets() * 64
	start := uint64(0)
	if total > llc {
		start = total - llc
	}
	core.Touch(memsim.Addr(uint64(j.Table.BaseAddr())+start), int(total-start))
}

// parallelJoinConfig describes one sharded multi-core hash-join measurement:
// the probe relation is hash-partitioned across workers and every worker
// simulates its shard on a private core, concurrently and deterministically
// (see exec.RunParallel).
type parallelJoinConfig struct {
	machine   memsim.Config
	spec      relation.JoinSpec
	workers   int
	tech      ops.Technique
	window    int
	earlyExit bool
}

// parallelJoinResult is the merged outcome of runParallelJoin.
type parallelJoinResult struct {
	// perWorker holds each worker's probe-phase counters.
	perWorker []memsim.Stats
	// merged has Cycles = max over workers, counters summed.
	merged memsim.Stats
	// tuples is the total probe cardinality across all workers.
	tuples int
	// outputCount and outputChecksum aggregate the workers' outputs.
	outputCount    uint64
	outputChecksum uint64
}

// aggregateThroughputMTuplesPerSec is the scalability metric of the scaleN
// experiment: total probe tuples divided by the slowest worker's elapsed
// time.
func (r parallelJoinResult) aggregateThroughputMTuplesPerSec(freqHz float64) float64 {
	if r.merged.Cycles == 0 {
		return 0
	}
	seconds := float64(r.merged.Cycles) / freqHz
	return float64(r.tuples) / seconds / 1e6
}

// newParallelJoin generates the relations and hash-partitions them across
// the workers, tables pre-built raw. Probes never mutate the tables, so one
// partitioned workload can be reused read-only across techniques.
func newParallelJoin(spec relation.JoinSpec, workers int) *ops.PartitionedHashJoin {
	build, probe := cachedJoinRelations(spec)
	pj := ops.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()
	return pj
}

// runParallelJoin generates a fresh partitioned workload and measures it;
// sweeps that reuse one workload across techniques call newParallelJoin once
// and runParallelProbe per technique.
func runParallelJoin(cfg parallelJoinConfig) parallelJoinResult {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	return runParallelProbe(newParallelJoin(cfg.spec, cfg.workers), cfg)
}

// runParallelProbe measures the probe phase of a pre-built partitioned
// workload with every worker running its own engine instance over its
// partition on a private core. Each worker gets a private System whose L3 is
// its capacity share of the socket's LLC (Config.ShareLLC) and whose
// off-chip queue is told that all workers are active, so queue contention
// scales with the worker count as on the real socket. Tables are
// cache-warmed per worker, mirroring the single-core probe-only harness
// (runJoin). When the worker count exceeds the socket's hardware contexts,
// the merged elapsed cycles are scaled by workers/contexts — ideal
// round-robin time-slicing of the surplus workers — so oversubscribed rows
// never report physically impossible concurrency.
func runParallelProbe(pj *ops.PartitionedHashJoin, cfg parallelJoinConfig) parallelJoinResult {
	return runParallelProbeOuts(pj, cfg, nil)
}

// runParallelProbeOuts is runParallelProbe with caller-provided output
// collectors (one per worker, reset). The serving sweep pre-allocates its
// collectors in run order when the partitioned workload is materialized, so
// every sweep worker's copy lays them out at identical arena addresses; nil
// keeps the classic allocate-at-run behaviour.
func runParallelProbeOuts(pj *ops.PartitionedHashJoin, cfg parallelJoinConfig, outs []*ops.Output) parallelJoinResult {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.window <= 0 {
		cfg.window = ops.DefaultWindow
	}

	cores := make([]*memsim.Core, cfg.workers)
	machines := make([]*ops.ProbeMachine, cfg.workers)
	if outs == nil {
		outs = make([]*ops.Output, cfg.workers)
		for w := 0; w < cfg.workers; w++ {
			outs[w] = ops.NewOutput(pj.Parts[w].Arena, false)
			outs[w].Sequential = true // dense per-worker output partition
		}
	}
	shared := cfg.machine.ShareLLC(cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		sys := memsim.MustSystem(shared)
		cores[w] = sys.NewCore()
		sys.SetActiveThreads(cfg.workers, cores[w])
		warmTable(cores[w], pj.Parts[w])
		cores[w].ResetStats()
		machines[w] = pj.ProbeMachine(w, outs[w], cfg.earlyExit)
	}

	ps := exec.RunParallel(cores, func(w int, c *memsim.Core) {
		ops.RunMachine(c, machines[w], cfg.tech, ops.Params{Window: cfg.window})
	})

	res := parallelJoinResult{
		perWorker: ps.PerWorker,
		merged:    ps.Merged,
		tuples:    pj.ProbeTuples(),
	}
	if hw := cfg.machine.HardwareThreads(); cfg.workers > hw {
		res.merged.Cycles = res.merged.Cycles * uint64(cfg.workers) / uint64(hw)
	}
	for _, out := range outs {
		res.outputCount += out.Count
		res.outputChecksum += out.Checksum
	}
	return res
}

// groupByConfig describes one group-by measurement.
type groupByConfig struct {
	machine memsim.Config
	spec    relation.GroupBySpec
	tech    ops.Technique
	window  int
}

// runGroupBy measures a group-by phase.
func runGroupBy(cfg groupByConfig) phaseResult {
	if cfg.window <= 0 {
		cfg.window = ops.DefaultWindow
	}
	rel := cachedGroupByRelation(cfg.spec)
	groups := cfg.spec.Size / cfg.spec.Repeats
	g := ops.NewGroupBy(rel, groups)
	sys := memsim.MustSystem(cfg.machine)
	core := sys.NewCore()
	ops.RunMachine(core, g.Machine(), cfg.tech, ops.Params{Window: cfg.window})
	return phaseResult{cycles: core.Cycle(), stats: core.Stats(), tuples: rel.Len()}
}

// runBSTSearch measures a tree-search phase over a 2^sizeExp-node tree.
func runBSTSearch(e *sweepEnv, machine memsim.Config, sizeExp int, tech ops.Technique, window int, seed uint64) phaseResult {
	w, out := e.wl.bstWorkload(1<<sizeExp, seed)
	sys := memsim.MustSystem(machine)
	core := sys.NewCore()
	ops.RunMachine(core, w.SearchMachine(out), tech, ops.Params{Window: window})
	return phaseResult{cycles: core.Cycle(), stats: core.Stats(), tuples: w.Probe.Len(), outputCount: out.Count}
}

// runSkipListSearch measures a search phase over a pre-built skip list.
func runSkipListSearch(e *sweepEnv, machine memsim.Config, sizeExp int, tech ops.Technique, window int, seed uint64) phaseResult {
	w, out := e.wl.skipListSearch(1<<sizeExp, seed)
	sys := memsim.MustSystem(machine)
	core := sys.NewCore()
	ops.RunMachine(core, w.SearchMachine(out), tech, ops.Params{Window: window})
	return phaseResult{cycles: core.Cycle(), stats: core.Stats(), tuples: w.Probe.Len(), outputCount: out.Count}
}

// runSkipListInsert measures building a skip list from scratch.
func runSkipListInsert(machine memsim.Config, sizeExp int, tech ops.Technique, window int, seed uint64) phaseResult {
	// Inserts mutate the list, so only the relations are cached; the list is
	// rebuilt fresh for every measured run.
	build, probe := cachedIndexRelations(1<<sizeExp, seed)
	w := ops.NewSkipListWorkload(build, probe)
	sys := memsim.MustSystem(machine)
	core := sys.NewCore()
	m := w.InsertMachine(seed)
	ops.RunMachine(core, m, tech, ops.Params{Window: window})
	return phaseResult{cycles: core.Cycle(), stats: core.Stats(), tuples: build.Len(), outputCount: uint64(m.Inserted)}
}

// techColumns is the column order used by most figures.
var techColumns = []string{"Baseline", "GP", "SPP", "AMAC"}

// skewLabel renders the paper's [Z_R, Z_S] notation.
func skewLabel(zr, zs float64) string {
	return fmt.Sprintf("[%.2g, %.2g]", zr, zs)
}
