package main

import (
	"fmt"
	"syscall"
	"time"

	"amac"
)

// serveWorkers is serve-open's shard count. It equals the host's CPU count
// the benchmark is sized for, so RunService's two goroutines both run.
const serveWorkers = 2

// serveSkew is the Zipf exponent of both serving workloads' build keys. At
// 1.0, as in serveN, the hot key's chain decides which probes walk it, so the
// work per request moves by tens of percent from seed to seed; 0.5 keeps the
// chains divergent and the work per request steady across seeds.
const serveSkew = 0.5

// serveLoads are serve-open's offered loads as fractions of AMAC's
// calibrated capacity: 0.6 leaves idle gaps, 0.9 is serveN's decisive row.
var serveLoads = []float64{0.6, 0.9}

// designatedLoad indexes the load whose AMAC run gives serve-open's
// simulated end-to-end metrics. At 0.9 the streaming engine runs near
// saturation and its p99 moves by a fifth with the arrival seed; at 0.6 it
// moves by a few percent.
const designatedLoad = 0

// serveOpen is an open loop in simulated time: a skewed join split over two
// shards, each served from an unbounded blocking queue fed by a precomputed
// Poisson schedule, under every technique at two loads.
type serveOpen struct {
	pj       *amac.PartitionedHashJoin
	outs     []*amac.Output
	capacity float64      // AMAC batch requests per cycle, all shards
	arrivals [][][]uint64 // [load][worker] arrival cycles

	refCount, refSum uint64
}

func setupServeOpen(seed uint64, s *setupClock) instance {
	var build, probe *amac.Relation
	s.step("relation.gen_s", "relation", func() {
		build, probe = mustJoin(amac.JoinSpec{BuildSize: size.serveBuild, ProbeSize: size.serveProbe, ZipfBuild: serveSkew, Seed: seed})
	})
	w := &serveOpen{}
	s.step("ops.materialize_s", "ops", func() {
		w.pj = amac.PartitionJoin(build, probe, serveWorkers)
		for _, part := range w.pj.Parts {
			out := amac.NewOutput(part.Arena, false)
			out.Sequential = true // dense per-worker output partition
			w.outs = append(w.outs, out)
		}
	})
	s.step("ht.prebuild_s", "ht", func() { w.pj.PrebuildRaw() })
	s.step("engine.calibrate_s", "parallel", func() { w.capacity = w.calibrate() })
	s.step("serve.schedule_s", "serve", func() {
		total := float64(w.pj.ProbeTuples())
		for _, load := range serveLoads {
			perWorker := make([][]uint64, serveWorkers)
			for i, part := range w.pj.Parts {
				nw := part.Probe.Len()
				period := total / (load * w.capacity * float64(nw))
				perWorker[i] = amac.Poisson{MeanPeriod: period}.Schedule(nw, seed+uint64(i)+1)
			}
			w.arrivals = append(w.arrivals, perWorker)
		}
	})
	return w
}

// calibrate measures AMAC's batch capacity on the serving partitions with
// the serving layer's LLC share, as serveN defines its load axis.
func (w *serveOpen) calibrate() float64 {
	shared := amac.XeonX5670().ShareLLC(serveWorkers)
	cores := make([]*amac.Core, serveWorkers)
	for i := range cores {
		sys := amac.MustSystem(shared)
		cores[i] = sys.NewCore()
		sys.SetActiveThreads(serveWorkers, cores[i])
		warmTable(cores[i], w.pj.Parts[i].Table)
		cores[i].ResetStats()
		w.outs[i].Reset()
	}
	ps := amac.RunParallel(cores, func(i int, c *amac.Core) {
		amac.RunWith(c, w.pj.ProbeMachine(i, w.outs[i], true), amac.AMAC, amac.Params{Window: window})
	})
	return float64(w.pj.ProbeTuples()) / float64(ps.Merged.Cycles)
}

func (w *serveOpen) reference() { w.refCount, w.refSum = w.pj.ReferenceJoinFirstMatch() }

// options returns the service options of one (technique) run.
func (w *serveOpen) options(tech amac.Technique) amac.ServiceOptions {
	return amac.ServiceOptions{
		Hardware:  amac.XeonX5670(),
		Technique: tech,
		Window:    window,
		Policy:    amac.QueueBlock,
		Prepare:   func(i int, c *amac.Core) { warmTable(c, w.pj.Parts[i].Table) },
	}
}

// workers resets the output collectors and returns the per-shard machines
// with the arrival schedule of load index li.
func (w *serveOpen) workers(li int) []amac.ServiceWorker[amac.ProbeState] {
	specs := make([]amac.ServiceWorker[amac.ProbeState], serveWorkers)
	for i := range specs {
		w.outs[i].Reset()
		specs[i] = amac.ServiceWorker[amac.ProbeState]{
			Machine:  w.pj.ProbeMachine(i, w.outs[i], true),
			Arrivals: w.arrivals[li][i],
		}
	}
	return specs
}

func (w *serveOpen) pass(p *pass) {
	p.hash(w.capacity)
	total := uint64(w.pj.ProbeTuples())
	var cpu, wall time.Duration
	var designated time.Duration
	var designatedRes amac.ServiceResult
	for li, load := range serveLoads {
		for _, tech := range amac.Techniques {
			label := fmt.Sprintf("%v.load%d", tech, int(load*100+0.5))
			p.run("serve "+label, int(total), attrs("technique", tech.String(), "load", fmt.Sprint(load)), func() {
				specs := w.workers(li)
				var res amac.ServiceResult
				cpu0 := cpuTime()
				d := p.call("RunService", "serve", func() { res = amac.RunService(w.options(tech), specs) })
				cpu += cpuTime() - cpu0
				wall += d

				var count, sum uint64
				for _, out := range w.outs {
					count += out.Count
					sum += out.Checksum
				}
				lat := &res.Latency
				p.check(count == w.refCount && sum == w.refSum && lat.Offered == total && lat.Completed == total,
					"serve-open %s: count %d checksum %x offered %d completed %d, want %d %x %d %d",
					label, count, sum, lat.Offered, lat.Completed, w.refCount, w.refSum, total, total)
				hashService(p, label, res)

				p.layer["serve.host_ns_per_request."+label] = ns(d) / float64(total)
				p.layer["serve.sim_p99_cycles."+label] = quantile(lat, 0.99)
				if tech != amac.AMAC {
					return
				}
				if li == designatedLoad {
					busy, cycles := busyCycles(res)
					p.layer["serve.idle_share.AMAC.load60"] = 1 - ratio(float64(busy), float64(cycles))
					p.sim["sim_cycles_per_lookup"] = ratio(float64(busy), float64(lat.Completed))
					latencyMetrics(p, lat)
					designated, designatedRes = d, res
					return
				}
				p.layer["serve.queue_wait_mean_cycles.AMAC.load90"] = lat.MeanQueueWait()
			})
		}
	}
	p.layer["serve.cpu_per_wall"] = ratio(float64(cpu), float64(wall))
	if p.traced() {
		w.withSinks(p, designated, designatedRes)
	}
}

// withSinks repeats the designated run with every sink attached to the
// service.
func (w *serveOpen) withSinks(p *pass, off time.Duration, offRes amac.ServiceResult) {
	p.extra(func() {
		p.run("serve+sinks AMAC.load60", w.pj.ProbeTuples(), attrs("technique", "AMAC", "load", "0.6", "sinks", "on"), func() {
			s := newSinks()
			opts := w.options(amac.AMAC)
			opts.Trace, opts.Metrics, opts.Profile = s.trace, s.metrics, s.profile
			specs := w.workers(designatedLoad)
			var res amac.ServiceResult
			on := p.call("RunService", "serve", func() { res = amac.RunService(opts, specs) })
			sinksRatio(p, on, off)
			p.check(res.Stats == offRes.Stats && res.Latency == offRes.Latency,
				"serve-open: sinks changed the simulated statistics")
			for i, wr := range res.PerWorker {
				s.conserved(p, i, wr.Stats.Cycles)
			}
			s.export(p)
		})
	})
}

// busyCycles sums the shards' non-idle and total simulated cycles.
func busyCycles(res amac.ServiceResult) (busy, cycles uint64) {
	for _, wr := range res.PerWorker {
		busy += wr.Stats.Cycles - wr.Stats.IdleCycles
		cycles += wr.Stats.Cycles
	}
	return busy, cycles
}

// hashService folds every simulated statistic of a service run into the
// pass digest.
func hashService(p *pass, label string, res amac.ServiceResult) {
	p.hash(label, res.Stats, res.Sched, res.Latency)
	for _, wr := range res.PerWorker {
		p.hash(wr.Stats, wr.Sched, *wr.Latency)
		if wr.Faults != nil {
			p.hash(*wr.Faults)
		}
	}
	if res.Faults != nil {
		p.hash(*res.Faults)
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// chaosReplicas is serve-chaos's shard count: full replicas, so any shard
// can serve any request.
const chaosReplicas = 4

// chaosLoad is serve-chaos's offered load as a fraction of the replicas'
// calibrated AMAC capacity. faultN runs at 0.9, where the clean row's p99,
// and with it every recovery knob and the breaker row's p99, moved by more
// than a quarter across seeds; at 0.8 they move by under a tenth, and the
// slowed shard still overloads.
const chaosLoad = 0.8

// chaosRow is one rung of faultN's degradation ladder; each adds one
// recovery mechanism to the previous.
type chaosRow struct {
	name                                    string
	faults, deadline, retry, hedge, breaker bool
}

var chaosRows = []chaosRow{
	{name: "clean"},
	{name: "naive", faults: true},
	{name: "deadline", faults: true, deadline: true, retry: true},
	{name: "hedge", faults: true, deadline: true, retry: true, hedge: true},
	{name: "breaker", faults: true, deadline: true, retry: true, hedge: true, breaker: true},
}

// serveChaos is faultN's layout: AMAC traffic at 0.8 load on four full
// replicas of a skewed join while shard 0 runs 4x slow for the middle half
// of the run, served under each rung of the recovery ladder.
type serveChaos struct {
	joins    []*amac.HashJoin
	outs     []*amac.Output
	sched    [][]int32  // each shard's home block of request indices
	arrivals [][]uint64 // per shard
	perCore  float64    // AMAC batch requests per cycle on one replica
	faults   *amac.FaultSchedule

	// Recovery knobs, derived from the clean row's p99 in set-up.
	cleanP99 uint64
	deadline uint64
	retry    amac.RetryPolicy
	hedge    amac.HedgePolicy
	breaker  amac.BreakerConfig

	refCount, refSum uint64
}

func setupServeChaos(seed uint64, s *setupClock) instance {
	var build, probe *amac.Relation
	s.step("relation.gen_s", "relation", func() {
		build, probe = mustJoin(amac.JoinSpec{BuildSize: size.chaosBuild, ProbeSize: size.chaosProbe, ZipfBuild: serveSkew, Seed: seed})
	})
	w := &serveChaos{}
	s.step("ops.materialize_s", "ops", func() {
		n := probe.Len()
		for i := 0; i < chaosReplicas; i++ {
			j := amac.NewHashJoin(build, probe)
			w.joins = append(w.joins, j)
			w.outs = append(w.outs, amac.NewOutput(j.Arena, false))
			lo, hi := i*n/chaosReplicas, (i+1)*n/chaosReplicas
			block := make([]int32, 0, hi-lo)
			for k := lo; k < hi; k++ {
				block = append(block, int32(k))
			}
			w.sched = append(w.sched, block)
		}
	})
	s.step("ht.prebuild_s", "ht", func() {
		for _, j := range w.joins {
			j.PrebuildRaw()
		}
	})
	s.step("engine.calibrate_s", "core", func() { w.perCore = w.calibrate() })
	s.step("serve.schedule_s", "serve", func() {
		period := 1 / (chaosLoad * w.perCore)
		var horizon uint64
		for i, block := range w.sched {
			arr := amac.Poisson{MeanPeriod: period}.Schedule(len(block), seed+uint64(i)+1)
			w.arrivals = append(w.arrivals, arr)
			if len(arr) > 0 && arr[len(arr)-1] > horizon {
				horizon = arr[len(arr)-1]
			}
		}
		w.faults = &amac.FaultSchedule{Episodes: []amac.FaultEpisode{
			{Kind: amac.FaultSlow, Shard: 0, Start: horizon / 4, Dur: horizon / 2, Factor: 4},
		}}
	})
	// The clean row's p99 sets the deadline, retry backoff, hedge delay and
	// breaker cooldown, as in faultN; it is part of what a user pays. It is
	// the interpolated p99, not the recorder's bucket edge: a knob that jumps
	// by a bucket from seed to seed moves the breaker row's quantiles with it.
	s.step("engine.calibrate_s", "serve", func() {
		res := amac.RunFaultyService(w.options(chaosRows[0], sinks{}), w.workers())
		w.cleanP99 = max(uint64(quantile(&res.Latency, 0.99)), 1)
		w.deadline = 2 * w.cleanP99
		w.retry = amac.RetryPolicy{Max: 2, Backoff: w.deadline / 2}
		w.hedge = amac.HedgePolicy{Delay: w.cleanP99}
		w.breaker = amac.BreakerConfig{Cooldown: 4 * w.deadline}
	})
	return w
}

// calibrate measures AMAC's batch capacity on one replica under the
// serving layer's LLC share and active-thread count.
func (w *serveChaos) calibrate() float64 {
	sys := amac.MustSystem(amac.XeonX5670().ShareLLC(chaosReplicas))
	c := sys.NewCore()
	sys.SetActiveThreads(chaosReplicas, c)
	warmTable(c, w.joins[0].Table)
	c.ResetStats()
	w.outs[0].Reset()
	m := w.joins[0].ProbeMachine(w.outs[0], true)
	amac.RunWith(c, m, amac.AMAC, amac.Params{Window: window})
	return float64(m.NumLookups()) / float64(c.Stats().Cycles)
}

func (w *serveChaos) reference() { w.refCount, w.refSum = w.joins[0].ReferenceJoinFirstMatch() }

// options returns the fault-injected service options of one ladder row,
// with the given sinks attached.
func (w *serveChaos) options(row chaosRow, s sinks) amac.FaultyServiceOptions {
	fo := amac.FaultyServiceOptions{
		Options: amac.ServiceOptions{
			Hardware:  amac.XeonX5670(),
			Technique: amac.AMAC,
			Window:    window,
			Policy:    amac.QueueBlock,
			Prepare:   func(i int, c *amac.Core) { warmTable(c, w.joins[i].Table) },
			Trace:     s.trace,
			Metrics:   s.metrics,
			Profile:   s.profile,
		},
		Sched: w.sched,
	}
	if row.faults {
		fo.Faults = w.faults
	}
	if row.deadline {
		fo.Deadline = w.deadline
	}
	if row.retry {
		fo.Retry = w.retry
	}
	if row.hedge {
		fo.Hedge = w.hedge
	}
	if row.breaker {
		breaker := w.breaker
		fo.Breaker = &breaker
	}
	return fo
}

// workers resets the output collectors and returns the per-replica machines
// with their home arrival schedules.
func (w *serveChaos) workers() []amac.ServiceWorker[amac.ProbeState] {
	specs := make([]amac.ServiceWorker[amac.ProbeState], chaosReplicas)
	for i := range specs {
		w.outs[i].Reset()
		specs[i] = amac.ServiceWorker[amac.ProbeState]{
			Machine:  w.joins[i].ProbeMachine(w.outs[i], true),
			Arrivals: w.arrivals[i],
		}
	}
	return specs
}

func (w *serveChaos) pass(p *pass) {
	p.hash(w.perCore, w.cleanP99)
	var breakerRes amac.ServiceResult
	var breakerD time.Duration
	for _, row := range chaosRows {
		p.run("serve-faulty "+row.name, w.joins[0].Probe.Len(), attrs("row", row.name), func() {
			// The breaker row carries every sink and exports all four
			// formats inside the pass: it is what trace and profile users pay.
			var s sinks
			if row.breaker {
				s = newSinks()
			}
			specs := w.workers()
			var res amac.ServiceResult
			d := p.call("RunFaultyService", "serve", func() { res = amac.RunFaultyService(w.options(row, s), specs) })
			if row.breaker {
				for i, wr := range res.PerWorker {
					s.conserved(p, i, wr.Stats.Cycles)
				}
				s.export(p)
				breakerRes, breakerD = res, d
			}
			w.checkRow(p, row, res)
			hashService(p, row.name, res)

			lat := &res.Latency
			p.layer["fault.host_ns_per_request."+row.name] = ns(d) / float64(lat.Offered)
			p.layer["fault.sim_p99_cycles."+row.name] = quantile(lat, 0.99)
			p.layer["fault.served_fraction."+row.name] = ratio(float64(lat.Completed), float64(lat.Offered))
		})
	}

	lat := &breakerRes.Latency
	busy, _ := busyCycles(breakerRes)
	p.sim["sim_cycles_per_lookup"] = ratio(float64(busy), float64(lat.Completed))
	latencyMetrics(p, lat)
	p.layer["fault.hedge_win_ratio"] = ratio(float64(lat.HedgeWins), float64(lat.Hedged))
	p.layer["fault.hedge_waste_ratio"] = ratio(float64(lat.HedgeWaste), float64(lat.Hedged))
	p.layer["fault.retried"] = float64(lat.Retried)
	p.layer["fault.rerouted"] = float64(lat.Rerouted)
	trips := 0
	if breakerRes.Faults != nil {
		for _, t := range breakerRes.Faults.Breaker {
			if t.To.String() == "open" {
				trips++
			}
		}
	}
	p.layer["fault.breaker_trips"] = float64(trips)
	if p.traced() {
		w.withoutSinks(p, breakerD, breakerRes)
	}
}

// checkRow checks a ladder row's request accounting and, for the clean row,
// its output against the reference join.
func (w *serveChaos) checkRow(p *pass, row chaosRow, res amac.ServiceResult) {
	lat := &res.Latency
	n := uint64(w.joins[0].Probe.Len())
	resolved := lat.Completed + lat.TimedOut + lat.Failed + lat.Shed + lat.Dropped
	ok := lat.Offered == n && resolved == lat.Offered
	if row.name == "clean" {
		var count, sum uint64
		for _, out := range w.outs {
			count += out.Count
			sum += out.Checksum
		}
		ok = ok && count == w.refCount && sum == w.refSum
	}
	p.check(ok, "serve-chaos %s: offered %d of %d, resolved %d (completed %d timed out %d failed %d shed %d dropped %d)",
		row.name, lat.Offered, n, resolved, lat.Completed, lat.TimedOut, lat.Failed, lat.Shed, lat.Dropped)
}

// withoutSinks repeats the breaker row with no sinks: the pass's breaker row
// is the sinks-on half of the pair.
func (w *serveChaos) withoutSinks(p *pass, on time.Duration, onRes amac.ServiceResult) {
	p.extra(func() {
		p.run("serve-faulty-sinks-off breaker", w.joins[0].Probe.Len(), attrs("row", "breaker", "sinks", "off"), func() {
			row := chaosRows[len(chaosRows)-1]
			specs := w.workers()
			var res amac.ServiceResult
			off := p.call("RunFaultyService", "serve", func() { res = amac.RunFaultyService(w.options(row, sinks{}), specs) })
			sinksRatio(p, on, off)
			p.check(res.Stats == onRes.Stats && res.Latency == onRes.Latency,
				"serve-chaos: sinks changed the simulated statistics")
		})
	})
}
