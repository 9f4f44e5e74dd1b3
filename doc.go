// Package amac is a from-scratch reproduction of "Asynchronous Memory
// Access Chaining" (Kocberber, Falsafi, Grot — VLDB 2015) as a reusable Go
// library.
//
// AMAC is a software technique for hiding memory latency in pointer-chasing
// database operators (hash joins, group-by, index search): instead of
// statically grouping or pipelining independent lookups — the prior
// Group Prefetching and Software-Pipelined Prefetching approaches — AMAC
// keeps each in-flight lookup's state in a slot of a small circular buffer
// and switches between lookups every time one of them issues a memory
// access. Because the lookups never wait for each other, irregular work
// (variable-length chains, early exits, latch conflicts) does not reduce the
// memory-level parallelism the core sustains.
//
// Go has no portable prefetch intrinsic, so this library reproduces the
// paper on a deterministic, cycle-accounting model of the machines the paper
// evaluates; the package documentation of internal/memsim gives the
// substitution argument, and EXPERIMENTS.md compares the results with the
// paper's. The API has six parts:
//
//   - the simulated hardware: Hardware and XeonX5670 describe a socket,
//     NewSystem or MustSystem builds it, and System.NewCore hands out the
//     Core every engine charges; Arena is the simulated address space;
//   - the engines: a Machine describes a lookup as numbered code stages, and
//     Run (AMAC), RunBaseline and RunWith (any Technique: Baseline, GP, SPP,
//     AMAC) schedule it; RunParallel runs one engine per worker on private
//     cores;
//   - the paper's workloads: BuildJoin, BuildGroupBy and BuildIndexWorkload
//     generate relations, and NewHashJoin, PartitionJoin, NewGroupBy,
//     NewBSTWorkload and NewSkipListWorkload materialize them as machines
//     that run under any engine;
//   - open-loop serving: RunService serves ServiceWorkers from bounded
//     admission queues and records per-request latency (LatencyRecorder);
//     RunFaultyService runs the same coordinator under a FaultSchedule with
//     deadlines, retries, hedging and circuit breakers; with
//     ServiceOptions.Adaptive set, every shard has an adaptive controller
//     that picks the technique and resizes the AMAC slot window online;
//   - streaming pipelines: NewPipeline declares a multi-operator plan whose
//     stages stream rows through bounded, backpressured pipes, each stage
//     under its own engine — static, planned (PipelineBuilder.Plan) or
//     adaptive (Pipeline.RunAdaptive with an AdaptiveController per stage);
//   - instrumentation on the simulated clock: Trace (Chrome/Perfetto
//     events), Metrics (gauge time series) and CycleProfile (every cycle
//     charged to one category, folded and pprof exports), gathered in one
//     Sinks value. A nil sink is the disabled state, and an instrumented run
//     is byte-identical to a plain one.
//
// The examples directory holds a runnable program for each part, and
// cmd/amacbench regenerates every table and figure of the paper's
// evaluation.
package amac
