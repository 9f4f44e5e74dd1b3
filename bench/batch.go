package main

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"amac"
)

// window is the in-flight lookup count of every technique, the paper's
// best setting on the Xeon.
const window = 10

// instance is a workload after set-up: the state every pass reuses.
type instance interface {
	// reference computes the expected outputs. It runs once per process,
	// outside set-up timing.
	reference()
	// pass runs every simulated run of the workload once.
	pass(p *pass)
}

// warmTable installs the LLC-sized tail of the table's bucket array in the
// core's caches, the cache state a probe inherits from a build that ran on
// the same core (the experiments' warm-up, through the public API).
func warmTable(c *amac.Core, t *amac.HashTable) {
	llc := uint64(c.Config().L3.SizeBytes)
	total := t.NumBuckets() * amac.LineSize
	start := uint64(0)
	if total > llc {
		start = total - llc
	}
	base := uint64(t.BaseAddr())
	for off := start; off < total; off += amac.LineSize {
		c.Touch(amac.Addr(base+off), amac.LineSize)
	}
}

// doneClock records the simulated cycle at which each lookup of the wrapped
// machine completes. Every lookup of a batch is available at cycle 0, so
// that cycle is its latency from arrival, as a served request's is. It
// charges nothing, so the run's simulated statistics are unchanged.
type doneClock[S any] struct {
	amac.Machine[S]
	rec *amac.LatencyRecorder
}

func (m doneClock[S]) Init(c *amac.Core, s *S, i int) amac.Outcome {
	o := m.Machine.Init(c, s, i)
	if o.Done {
		m.rec.RecordLatency(c.Cycle())
	}
	return o
}

func (m doneClock[S]) Stage(c *amac.Core, s *S, stage int) amac.Outcome {
	o := m.Machine.Stage(c, s, stage)
	if o.Done {
		m.rec.RecordLatency(c.Cycle())
	}
	return o
}

// newBatchRecorder returns a latency recorder that expects n lookups.
func newBatchRecorder(n int) *amac.LatencyRecorder {
	return &amac.LatencyRecorder{Offered: uint64(n)}
}

// latencyMetrics records the simulated latency end-to-end metrics of the
// workload's designated run. The quantiles are over the requests that
// completed; the requests that did not are counted by sim_served_fraction
// instead of turning the quantiles infinite, because the faulted serve-chaos
// row leaves far more than 1% unserved on every seed.
func latencyMetrics(p *pass, rec *amac.LatencyRecorder) {
	p.sim["sim_p50_cycles"] = quantile(rec, 0.50)
	p.sim["sim_p99_cycles"] = quantile(rec, 0.99)
	p.sim["sim_served_fraction"] = ratio(float64(rec.Completed), float64(rec.Offered))
	p.simSamples["sim_p50_cycles"] = int(rec.Completed)
	p.simSamples["sim_p99_cycles"] = int(rec.Completed)
	p.simSamples["sim_served_fraction"] = int(rec.Offered)
	p.hash(*rec)
}

// quantile is rec's q-quantile interpolated linearly within its histogram
// bucket. Recorder.Quantile reports the upper edge of the bucket that holds
// the quantile's rank, an eighth of an octave wide, so it jumps a whole
// bucket whenever a different seed moves the true value across an edge. The
// bucket's rank range is recovered from Quantile itself by binary search,
// and the rank's position in that range places the value inside the bucket.
func quantile(rec *amac.LatencyRecorder, q float64) float64 {
	n := rec.Completed
	if n == 0 {
		return 0
	}
	// at is the latency Quantile reports for the rank-th fastest request.
	at := func(rank uint64) uint64 { return rec.Quantile((float64(rank) + 0.5) / float64(n)) }
	rank := min(max(uint64(q*float64(n)), 1), n)
	v := at(rank)
	if v < 16 { // the recorder keeps these exactly
		return float64(v)
	}
	shift := uint(bits.Len64(v) - 4)
	lo := v >> shift << shift
	hi := min(lo+1<<shift-1, rec.MaxLatency)
	first := uint64(sort.Search(int(rank), func(i int) bool { return at(uint64(i)+1) >= lo })) + 1
	last := rank + uint64(sort.Search(int(n-rank), func(i int) bool { return at(rank+uint64(i)+1) > v }))
	if first == last {
		return float64(lo+hi) / 2
	}
	return float64(lo) + float64(rank-first)/float64(last-first)*float64(hi-lo)
}

// runTechnique runs machine m under tech on core c as one timed call and
// records the run's per-technique layer values. AMAC goes through Run so
// its scheduler statistics are visible; RunWith gives the same simulation.
func runTechnique[S any](p *pass, c *amac.Core, m amac.Machine[S], tech amac.Technique) time.Duration {
	t := tech.String()
	var rs amac.RunStats
	var d time.Duration
	body := func() {
		if tech == amac.AMAC {
			d = p.call("Run", "core", func() { rs = amac.Run(c, m, amac.Options{Width: window}) })
			return
		}
		d = p.call("RunWith", "exec", func() { amac.RunWith(c, m, tech, amac.Params{Window: window}) })
	}
	if p.traced() {
		p.layer["engine.allocs_per_run."+t] = float64(allocs(body))
	} else {
		body()
	}

	st := c.Stats()
	n := float64(m.NumLookups())
	accesses := float64(st.Loads + st.Stores + st.Prefetches)
	p.layer["engine.host_ns_per_lookup."+t] = ns(d) / n
	p.layer["memsim.host_ns_per_access."+t] = ratio(ns(d), accesses)
	p.layer["memsim.accesses_per_lookup."+t] = accesses / n
	p.layer["memsim.dram_per_load."+t] = ratio(float64(st.MemAccesses), float64(st.Loads))
	p.layer["memsim.prefetch_dropped_ratio."+t] = ratio(float64(st.PrefetchDropped), float64(st.Prefetches))
	p.layer["sim.cycles_per_lookup."+t] = float64(st.Cycles) / n
	if tech == amac.AMAC {
		p.layer["core.amac.stage_visits_per_lookup"] = float64(rs.StageVisits) / n
		p.layer["core.amac.retry_ratio"] = ratio(float64(rs.Retries), float64(rs.StageVisits))
	}
	p.hash(t, st, rs)
	return d
}

// newCore creates a fresh simulated Xeon socket and one cold core on it, as
// a timed memsim call.
func newCore(p *pass) *amac.Core {
	var c *amac.Core
	d := p.call("MustSystem", "memsim", func() { c = amac.MustSystem(amac.XeonX5670()).NewCore() })
	p.layer["memsim.new_system_ms"] = ms(d)
	return c
}

// joinDRAM is the paper's headline join: a uniform probe with early exit
// into a DRAM-resident table whose LLC-sized tail is warm.
type joinDRAM struct {
	j   *amac.HashJoin
	out *amac.Output

	refCount, refSum uint64
}

func setupJoinDRAM(seed uint64, s *setupClock) instance {
	var build, probe *amac.Relation
	s.step("relation.gen_s", "relation", func() {
		build, probe = mustJoin(amac.JoinSpec{BuildSize: size.joinBuild, ProbeSize: size.joinProbe, Seed: seed})
	})
	w := &joinDRAM{}
	s.step("ops.materialize_s", "ops", func() {
		w.j = amac.NewHashJoin(build, probe)
		w.out = amac.NewOutput(w.j.Arena, false)
	})
	s.step("ht.prebuild_s", "ht", func() { w.j.PrebuildRaw() })
	return w
}

func (w *joinDRAM) reference() { w.refCount, w.refSum = w.j.ReferenceJoinFirstMatch() }

func (w *joinDRAM) pass(p *pass) {
	n := w.j.Probe.Len()
	var designated time.Duration
	var designatedStats amac.Stats
	for _, tech := range amac.Techniques {
		p.run("join "+tech.String(), n, attrs("technique", tech.String()), func() {
			c := newCore(p)
			p.call("warmTable", "memsim", func() { warmTable(c, w.j.Table) })
			c.ResetStats()
			w.out.Reset()
			var m amac.Machine[amac.ProbeState] = w.j.ProbeMachine(w.out, true)
			var rec *amac.LatencyRecorder
			if tech == amac.AMAC {
				rec = newBatchRecorder(n)
				m = doneClock[amac.ProbeState]{m, rec}
			}
			d := runTechnique(p, c, m, tech)
			p.check(w.out.Count == w.refCount && w.out.Checksum == w.refSum,
				"join-dram %v: count %d checksum %x, reference %d %x", tech, w.out.Count, w.out.Checksum, w.refCount, w.refSum)
			p.hash(w.out.Count, w.out.Checksum)
			if rec == nil {
				return
			}
			designated, designatedStats = d, c.Stats()
			p.sim["sim_cycles_per_lookup"] = float64(designatedStats.Cycles) / float64(n)
			latencyMetrics(p, rec)
		})
	}
	if p.traced() {
		w.withSinks(p, designated, designatedStats)
	}
}

// withSinks repeats the designated AMAC run with every sink attached.
func (w *joinDRAM) withSinks(p *pass, off time.Duration, offStats amac.Stats) {
	p.extra(func() {
		p.run("join+sinks AMAC", w.j.Probe.Len(), attrs("technique", "AMAC", "sinks", "on"), func() {
			c := newCore(p)
			warmTable(c, w.j.Table)
			c.ResetStats()
			w.out.Reset()
			s := newSinks()
			tr := s.attach(c, "join")
			m := w.j.ProbeMachine(w.out, true)
			on := p.call("Run", "core", func() { amac.Run(c, m, amac.Options{Width: window, Trace: tr}) })
			sinksRatio(p, on, off)
			p.check(c.Stats() == offStats, "join-dram: sinks changed the simulated statistics")
			s.conserved(p, 0, c.Stats().Cycles)
			s.export(p)
		})
	})
}

// groupBySkew is a Zipf(1.0) group-by with immediate aggregation: stores and
// latches beside the reads, hot groups cache-resident, cold core per run.
type groupBySkew struct {
	rel    *amac.Relation
	groups int
	ref    map[uint64]amac.Aggregates
}

func setupGroupBySkew(seed uint64, s *setupClock) instance {
	const repeats = 3
	w := &groupBySkew{groups: size.groupBy / repeats}
	s.step("relation.gen_s", "relation", func() {
		var err error
		w.rel, err = amac.BuildGroupBy(amac.GroupBySpec{Size: size.groupBy, Repeats: repeats, Zipf: 1.0, Seed: seed})
		if err != nil {
			panic(fmt.Sprintf("groupby-skew: %v", err))
		}
	})
	return w
}

func (w *groupBySkew) reference() { w.ref = amac.NewGroupBy(w.rel, w.groups).ReferenceGroups() }

func (w *groupBySkew) pass(p *pass) {
	n := w.rel.Len()
	var designated time.Duration
	var designatedStats amac.Stats
	for _, tech := range amac.Techniques {
		p.run("groupby "+tech.String(), n, attrs("technique", tech.String()), func() {
			c := newCore(p)
			var g *amac.GroupBy
			p.call("NewGroupBy", "ops", func() { g = amac.NewGroupBy(w.rel, w.groups) })
			var m amac.Machine[amac.GroupByState] = g.Machine()
			var rec *amac.LatencyRecorder
			if tech == amac.AMAC {
				rec = newBatchRecorder(n)
				m = doneClock[amac.GroupByState]{m, rec}
			}
			d := runTechnique(p, c, m, tech)
			w.checkGroups(p, tech, g)
			if rec == nil {
				return
			}
			designated, designatedStats = d, c.Stats()
			p.sim["sim_cycles_per_lookup"] = float64(designatedStats.Cycles) / float64(n)
			latencyMetrics(p, rec)
		})
	}
	if p.traced() {
		w.withSinks(p, designated, designatedStats)
	}
}

// checkGroups compares the aggregation table with the reference groups.
func (w *groupBySkew) checkGroups(p *pass, tech amac.Technique, g *amac.GroupBy) {
	got := g.Table.Groups()
	ok := len(got) == len(w.ref)
	for _, a := range got {
		if !ok {
			break
		}
		ok = w.ref[a.Key] == a
	}
	p.check(ok, "groupby-skew %v: aggregates differ from the reference (%d groups, want %d)", tech, len(got), len(w.ref))
}

// withSinks repeats the designated AMAC run with every sink attached.
func (w *groupBySkew) withSinks(p *pass, off time.Duration, offStats amac.Stats) {
	p.extra(func() {
		p.run("groupby+sinks AMAC", w.rel.Len(), attrs("technique", "AMAC", "sinks", "on"), func() {
			c := newCore(p)
			g := amac.NewGroupBy(w.rel, w.groups)
			s := newSinks()
			tr := s.attach(c, "groupby")
			on := p.call("Run", "core", func() { amac.Run(c, g.Machine(), amac.Options{Width: window, Trace: tr}) })
			sinksRatio(p, on, off)
			p.check(c.Stats() == offStats, "groupby-skew: sinks changed the simulated statistics")
			s.conserved(p, 0, c.Stats().Cycles)
			s.export(p)
		})
	})
}

// mustJoin generates join relations; the specs are fixed in this package,
// so an error is a bug here.
func mustJoin(spec amac.JoinSpec) (build, probe *amac.Relation) {
	build, probe, err := amac.BuildJoin(spec)
	if err != nil {
		panic(fmt.Sprintf("join spec %+v: %v", spec, err))
	}
	return build, probe
}
