package amac_test

import (
	"fmt"
	"testing"

	"amac"
)

// BenchmarkExperiment regenerates every registered experiment, one
// sub-benchmark per id, at smoke scale through the same code path as
// `amacbench -exp <id>`. Use `go run ./cmd/amacbench -exp <id> -scale small`
// for report-quality numbers (EXPERIMENTS.md records those next to the
// paper's values).
func BenchmarkExperiment(b *testing.B) {
	for _, d := range amac.Experiments() {
		b.Run(d.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables, err := amac.RunExperiment(d.ID, amac.ExperimentConfig{Scale: amac.TinyScale, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 {
					b.Fatalf("%s produced no tables", d.ID)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Technique micro-benchmarks: wall-clock cost of simulating one probe,
// with the simulated cycles-per-tuple reported as a custom metric so the
// paper's headline comparison is visible directly in the benchmark output.
// ---------------------------------------------------------------------------

func benchmarkProbe(b *testing.B, tech amac.Technique, zipfBuild float64) {
	const size = 1 << 16
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: size, ProbeSize: size, ZipfBuild: zipfBuild, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	join := amac.NewHashJoin(build, probe)
	join.PrebuildRaw()

	var simCycles float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := amac.MustSystem(amac.XeonX5670())
		core := sys.NewCore()
		out := amac.NewOutput(join.Arena, false)
		amac.RunWith(core, join.ProbeMachine(out, zipfBuild == 0), tech, amac.Params{Window: 10})
		simCycles = float64(core.Cycle()) / float64(probe.Len())
	}
	b.ReportMetric(simCycles, "simcycles/tuple")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probe.Len()), "ns/lookup")
}

func BenchmarkProbeUniform(b *testing.B) {
	for _, tech := range amac.Techniques {
		b.Run(tech.String(), func(b *testing.B) { benchmarkProbe(b, tech, 0) })
	}
}

func BenchmarkProbeSkewed(b *testing.B) {
	for _, tech := range amac.Techniques {
		b.Run(tech.String(), func(b *testing.B) { benchmarkProbe(b, tech, 1.0) })
	}
}

func BenchmarkGroupBy(b *testing.B) {
	rel, err := amac.BuildGroupBy(amac.GroupBySpec{Size: 1 << 15, Repeats: 3, Zipf: 0.5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, tech := range amac.Techniques {
		b.Run(tech.String(), func(b *testing.B) {
			var simCycles float64
			for i := 0; i < b.N; i++ {
				g := amac.NewGroupBy(rel, rel.Len()/3)
				sys := amac.MustSystem(amac.XeonX5670())
				core := sys.NewCore()
				amac.RunWith(core, g.Machine(), tech, amac.Params{Window: 10})
				simCycles = float64(core.Cycle()) / float64(rel.Len())
			}
			b.ReportMetric(simCycles, "simcycles/tuple")
		})
	}
}

func BenchmarkBSTSearch(b *testing.B) {
	build, probe, err := amac.BuildIndexWorkload(1<<15, 5)
	if err != nil {
		b.Fatal(err)
	}
	w := amac.NewBSTWorkload(build, probe)
	for _, tech := range amac.Techniques {
		b.Run(tech.String(), func(b *testing.B) {
			var simCycles float64
			for i := 0; i < b.N; i++ {
				sys := amac.MustSystem(amac.XeonX5670())
				core := sys.NewCore()
				out := amac.NewOutput(w.Arena, false)
				amac.RunWith(core, w.SearchMachine(out), tech, amac.Params{Window: 10})
				simCycles = float64(core.Cycle()) / float64(probe.Len())
			}
			b.ReportMetric(simCycles, "simcycles/lookup")
		})
	}
}

func BenchmarkSkipList(b *testing.B) {
	build, probe, err := amac.BuildIndexWorkload(1<<14, 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range []string{"Search", "Insert"} {
		for _, tech := range amac.Techniques {
			b.Run(fmt.Sprintf("%s/%s", op, tech), func(b *testing.B) {
				var simCycles float64
				for i := 0; i < b.N; i++ {
					w := amac.NewSkipListWorkload(build, probe)
					sys := amac.MustSystem(amac.XeonX5670())
					core := sys.NewCore()
					if op == "Search" {
						w.PrebuildRaw(9)
						out := amac.NewOutput(w.Arena, false)
						amac.RunWith(core, w.SearchMachine(out), tech, amac.Params{Window: 10})
						simCycles = float64(core.Cycle()) / float64(probe.Len())
					} else {
						amac.RunWith(core, w.InsertMachine(9), tech, amac.Params{Window: 10})
						simCycles = float64(core.Cycle()) / float64(build.Len())
					}
				}
				b.ReportMetric(simCycles, "simcycles/op")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Serving/streaming benchmarks: wall-clock cost of one open-loop serving run
// (queue-fed streaming engine on a recycled socket model) and of a fully
// backlogged stream replay, per technique. These cover the serving fast
// path: ring-buffer admission, pooled stream state, system recycling.
// ---------------------------------------------------------------------------

func benchmarkServe(b *testing.B, tech amac.Technique, arrivals []uint64, qcap int, policy amac.QueuePolicy, join *amac.HashJoin, out *amac.Output) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		out.Reset()
		res := amac.RunService(amac.ServiceOptions{
			Hardware:  amac.XeonX5670(),
			Technique: tech,
			Window:    10,
			QueueCap:  qcap,
			Policy:    policy,
		}, []amac.ServiceWorker[amac.ProbeState]{{
			Machine:  join.ProbeMachine(out, true),
			Arrivals: arrivals,
		}})
		cycles = res.ElapsedCycles()
	}
	b.ReportMetric(float64(cycles), "simcycles/run")
}

func serveBenchJoin(b *testing.B) (*amac.HashJoin, *amac.Output) {
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 13, ProbeSize: 1 << 13, ZipfBuild: 1.0, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	join := amac.NewHashJoin(build, probe)
	join.PrebuildRaw()
	return join, amac.NewOutput(join.Arena, false)
}

func BenchmarkServeRun(b *testing.B) {
	join, out := serveBenchJoin(b)
	arrivals := amac.Poisson{MeanPeriod: 260}.Schedule(1<<13, 7)
	for _, tech := range amac.Techniques {
		b.Run(tech.String(), func(b *testing.B) {
			benchmarkServe(b, tech, arrivals, 0, amac.QueueBlock, join, out)
		})
	}
}

func BenchmarkStreamBacklog(b *testing.B) {
	join, out := serveBenchJoin(b)
	backlog := make([]uint64, 1<<13) // everything due at cycle 0
	for _, tech := range amac.Techniques {
		b.Run(tech.String(), func(b *testing.B) {
			benchmarkServe(b, tech, backlog, 0, amac.QueueBlock, join, out)
		})
	}
}

func BenchmarkServeDrop(b *testing.B) {
	join, out := serveBenchJoin(b)
	bursty := amac.Bursty{Period: 60, BurstLen: 128, Off: 24000}.Schedule(1<<13, 11)
	benchmarkServe(b, amac.AMAC, bursty, 64, amac.QueueDrop, join, out)
}

// chainState and chainMachine form a compute-only operator: each lookup runs
// stages code stages that charge one instruction and touch no simulated
// memory.
type chainState struct{ left int }

type chainMachine struct{ n, stages int }

func (m chainMachine) NumLookups() int        { return m.n }
func (m chainMachine) ProvisionedStages() int { return m.stages }

func (m chainMachine) Init(c *amac.Core, s *chainState, i int) amac.Outcome {
	c.Instr(1)
	s.left = m.stages - 1
	if s.left <= 0 {
		return amac.Outcome{Done: true}
	}
	return amac.Outcome{NextStage: 1}
}

func (m chainMachine) Stage(c *amac.Core, s *chainState, stage int) amac.Outcome {
	c.Instr(1)
	if s.left--; s.left <= 0 {
		return amac.Outcome{Done: true}
	}
	return amac.Outcome{NextStage: stage}
}

// BenchmarkServeMachinery streams the compute-only chain machine from a fully
// backlogged queue. The memory model contributes almost nothing, so what is
// timed is the serving fast path itself: ring admit/pop, engine slot
// scheduling, pooled per-request state and latency recording.
func BenchmarkServeMachinery(b *testing.B) {
	mach := chainMachine{n: 1 << 15, stages: 4}
	backlog := make([]uint64, mach.n)
	for _, tech := range amac.Techniques {
		b.Run(tech.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res := amac.RunService(amac.ServiceOptions{
					Hardware:  amac.XeonX5670(),
					Technique: tech,
					Window:    10,
				}, []amac.ServiceWorker[chainState]{{
					Machine:  mach,
					Arrivals: backlog,
				}})
				if res.Latency.Completed != uint64(mach.n) {
					b.Fatalf("completed %d of %d requests", res.Latency.Completed, mach.n)
				}
				cycles = res.ElapsedCycles()
			}
			b.ReportMetric(float64(cycles), "simcycles/run")
		})
	}
}

// ---------------------------------------------------------------------------
// Observability overhead: the same runs with the trace/metrics sinks off and
// on. The "off" arms are the guarded path — instrumentation is threaded
// through every engine unconditionally, so these must stay within noise of
// the pre-instrumentation numbers, and TestDisabledObsZeroAllocPublicAPI
// asserts the disabled event sites allocate nothing.
// ---------------------------------------------------------------------------

func benchmarkServeObs(b *testing.B, traced bool) {
	join, out := serveBenchJoin(b)
	arrivals := amac.Poisson{MeanPeriod: 260}.Schedule(1<<13, 7)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		opts := amac.ServiceOptions{
			Hardware:  amac.XeonX5670(),
			Technique: amac.AMAC,
			Window:    10,
		}
		if traced {
			opts.Trace = amac.NewTrace(0)
			opts.Metrics = amac.NewMetrics(0)
		}
		out.Reset()
		res := amac.RunService(opts, []amac.ServiceWorker[amac.ProbeState]{{
			Machine:  join.ProbeMachine(out, true),
			Arrivals: arrivals,
		}})
		cycles = res.ElapsedCycles()
	}
	b.ReportMetric(float64(cycles), "simcycles/run")
}

func BenchmarkServeObs(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchmarkServeObs(b, false) })
	b.Run("on", func(b *testing.B) { benchmarkServeObs(b, true) })
}

func benchmarkStreamObs(b *testing.B, tr *amac.Trace) {
	join, out := serveBenchJoin(b)
	sys := amac.MustSystem(amac.XeonX5670())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		c := sys.NewCore()
		amac.RunStream(c, amac.NewMachineSource(join.ProbeMachine(out, false)),
			amac.Options{Width: 10, Trace: tr.Core("bench core")})
	}
}

func BenchmarkStreamObs(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchmarkStreamObs(b, nil) })
	b.Run("on", func(b *testing.B) { benchmarkStreamObs(b, amac.NewTrace(0)) })
}

// BenchmarkSimulatorLoad measures the raw cost of the memory-hierarchy model
// itself (the substrate every other number is built on).
func BenchmarkSimulatorLoad(b *testing.B) {
	sys := amac.MustSystem(amac.XeonX5670())
	core := sys.NewCore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Load(amac.Addr((i%(1<<20))*64+64), 8)
	}
}

// BenchmarkSimulatorPrefetch measures the cost of issuing software prefetches.
func BenchmarkSimulatorPrefetch(b *testing.B) {
	sys := amac.MustSystem(amac.XeonX5670())
	core := sys.NewCore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Prefetch(amac.Addr((i%(1<<20))*64 + 64))
		if i%4 == 3 {
			core.Load(amac.Addr((i%(1<<20))*64+64), 8)
		}
	}
}

// BenchmarkWorkloadGeneration measures relation generation (Zipf sampling and
// shuffling), which bounds how quickly large experiments can start.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 16, ProbeSize: 1 << 16, ZipfBuild: 0.75, Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}
