package main

import "amac"

// sizes are the workload dimensions. They are fixed for the benchmark; the
// tests swap in small ones. The tables keep the experiments' sizes, which
// decide what is DRAM- or cache-resident in the simulated hierarchy; the
// lookups per run are fewer, so that a run takes a fraction of a second and
// a measurement holds enough runs for its medians to shed host noise.
type sizes struct {
	joinBuild, joinProbe   int // join-dram tuples
	groupBy                int // groupby-skew input tuples
	serveBuild, serveProbe int // serve-open tuples; probes are requests
	chaosBuild, chaosProbe int // serve-chaos tuples per replica
	pipeRows               int // pipeline-chain root rows
	pipeBuild              int // keys of its two DRAM-resident tables
	pipeDim                int // keys of its cache-resident dimension table
	pipeSample             int // mini-planner sample rows
}

var fullSize = sizes{
	joinBuild: 1 << 20, joinProbe: 1 << 17,
	groupBy:    1 << 17,
	serveBuild: 1 << 20, serveProbe: 1 << 16,
	chaosBuild: 1 << 19, chaosProbe: 1 << 16,
	pipeRows: 1 << 15, pipeBuild: 1 << 20, pipeDim: 512, pipeSample: 2048,
}

// size is the dimension set in use.
var size = fullSize

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name  string
	setup func(seed uint64, s *setupClock) instance
}

var workloads = []workload{
	{"join-dram", setupJoinDRAM},
	{"groupby-skew", setupGroupBySkew},
	{"serve-open", setupServeOpen},
	{"serve-chaos", setupServeChaos},
	{"pipeline-chain", setupPipelineChain},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric and its unit. A simulated metric comes from the
// simulated clock or the simulation's counters: two runs of the same code and
// seed agree on it exactly. The others are measured on the host.
type metricDef struct {
	name, unit string
	sim        bool
}

// endToEnd are the metrics a user of the library sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"host_lookups_per_s", "1/s", false},
	{"setup_s", "s", false},
	{"live_heap_mb", "MB", false},
	{"sim_cycles_per_lookup", "cycles", true},
	{"sim_p50_cycles", "cycles", true},
	{"sim_p99_cycles", "cycles", true},
	{"sim_served_fraction", "fraction", true},
}

// simulated reports whether the named metric is simulated.
func simulated(name string) bool {
	for _, d := range append(perLayer(), endToEnd...) {
		if d.name == name {
			return d.sim
		}
	}
	return false
}

// hostSharePackages are the packages CPU-profile self time is folded into.
var hostSharePackages = []string{
	"memsim", "ht", "arena", "ops", "exec", "core", "serve", "fault",
	"pipeline", "adapt", "obs", "prof", "relation", "runtime", "other",
}

// perLayer lists the per-layer metrics every traced run reports, in report
// order. A layer a workload does not reach reads 0 with 0 samples.
func perLayer() []metricDef {
	const host, sim = false, true
	defs := []metricDef{
		{"relation.gen_s", "s", host}, {"ops.materialize_s", "s", host}, {"ht.prebuild_s", "s", host},
		{"serve.schedule_s", "s", host}, {"engine.calibrate_s", "s", host}, {"pipeline.plan_s", "s", host},
		{"memsim.new_system_ms", "ms", host},
	}
	// each appends one metric per suffix.
	each := func(d metricDef, suffixes ...string) {
		for _, s := range suffixes {
			defs = append(defs, metricDef{d.name + "." + s, d.unit, d.sim})
		}
	}
	var techs []string
	for _, t := range amac.Techniques {
		techs = append(techs, t.String())
	}
	each(metricDef{"engine.host_ns_per_lookup", "ns", host}, techs...)
	each(metricDef{"engine.allocs_per_run", "count", host}, techs...)
	each(metricDef{"memsim.host_ns_per_access", "ns", host}, techs...)
	each(metricDef{"memsim.accesses_per_lookup", "count", sim}, techs...)
	each(metricDef{"memsim.dram_per_load", "ratio", sim}, techs...)
	each(metricDef{"memsim.prefetch_dropped_ratio", "ratio", sim}, techs...)
	each(metricDef{"sim.cycles_per_lookup", "cycles", sim}, techs...)
	defs = append(defs,
		metricDef{"core.amac.stage_visits_per_lookup", "count", sim},
		metricDef{"core.amac.retry_ratio", "ratio", sim})
	var loads []string
	for _, t := range techs {
		loads = append(loads, t+".load60", t+".load90")
	}
	each(metricDef{"serve.host_ns_per_request", "ns", host}, loads...)
	each(metricDef{"serve.sim_p99_cycles", "cycles", sim}, loads...)
	defs = append(defs,
		metricDef{"serve.cpu_per_wall", "ratio", host},
		metricDef{"serve.idle_share.AMAC.load60", "ratio", sim},
		metricDef{"serve.queue_wait_mean_cycles.AMAC.load90", "cycles", sim})
	var rows []string
	for _, r := range chaosRows {
		rows = append(rows, r.name)
	}
	each(metricDef{"fault.host_ns_per_request", "ns", host}, rows...)
	each(metricDef{"fault.sim_p99_cycles", "cycles", sim}, rows...)
	each(metricDef{"fault.served_fraction", "fraction", sim}, rows...)
	defs = append(defs,
		metricDef{"fault.hedge_win_ratio", "ratio", sim},
		metricDef{"fault.hedge_waste_ratio", "ratio", sim},
		metricDef{"fault.retried", "count", sim},
		metricDef{"fault.rerouted", "count", sim},
		metricDef{"fault.breaker_trips", "count", sim},
		metricDef{"obs.sinks_on_off_ratio", "ratio", host},
		metricDef{"obs.export_chrome_ms", "ms", host},
		metricDef{"obs.export_jsonl_ms", "ms", host},
		metricDef{"prof.export_pprof_ms", "ms", host},
		metricDef{"prof.export_folded_ms", "ms", host},
		metricDef{"obs.dropped_event_ratio", "ratio", sim},
		metricDef{"prof.dram_hidden_fraction", "fraction", sim},
		metricDef{"prof.achieved_mlp", "count", sim})
	assignments := append(techs, "Planner")
	each(metricDef{"pipeline.host_ns_per_row", "ns", host}, assignments...)
	each(metricDef{"pipeline.sim_cycles_per_row", "cycles", sim}, assignments...)
	each(metricDef{"pipeline", "ratio", sim}, "stage0.selectivity", "stage1.selectivity", "stage2.selectivity")
	defs = append(defs,
		metricDef{"runtime.alloc_mb_per_pass", "MB", host},
		metricDef{"runtime.gc_per_pass", "count", host},
		metricDef{"runtime.gc_pause_ms_per_pass", "ms", host})
	each(metricDef{"host_share", "%", host}, hostSharePackages...)
	return append(defs,
		metricDef{"host.ref_ns", "ns", host},
		metricDef{"trace_overhead_ratio", "ratio", host})
}
