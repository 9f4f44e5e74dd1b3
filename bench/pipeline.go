package main

import (
	"fmt"
	"time"

	"amac"
)

// assignment is one per-stage engine assignment of the chain.
type assignment struct {
	name string
	cfgs []amac.StageConfig
}

// pipelineChain is pipeN's 3-way join chain: the root probes a DRAM-resident
// table, the middle a cache-resident dimension table, the tail a second
// DRAM-resident table. It runs under the four uniform assignments and the
// mini-planner's, on a cold core each.
type pipelineChain struct {
	b           *amac.PipelineBuilder
	out         *amac.Output
	rel         *amac.Relation
	choice      amac.PlanChoice
	assignments []assignment

	refCount uint64
}

// chainKey and chainPayload generate the root relation: two independent,
// diverse attributes of each row, both in the big tables' key domain.
func chainKey(i int, n, seed uint64) uint64     { return (uint64(i)*2654435761+seed)%n + 1 }
func chainPayload(i int, n, seed uint64) uint64 { return (uint64(i)*2246822519+seed)%n + 1 }

// dimKey is the middle stage's key for a root match on key k: the root
// table's payload.
func dimKey(k, dim uint64) uint64 { return (k*7)%dim + 1 }

func setupPipelineChain(seed uint64, s *setupClock) instance {
	n, dim := uint64(size.pipeBuild), uint64(size.pipeDim)
	w := &pipelineChain{}
	s.step("relation.gen_s", "relation", func() {
		t := make([]amac.Tuple, size.pipeRows)
		for i := range t {
			t[i] = amac.Tuple{Key: chainKey(i, n, seed), Payload: chainPayload(i, n, seed)}
		}
		w.rel = &amac.Relation{Name: "S", Tuples: t}
	})
	var a *amac.Arena
	var t1, t2, t3 *amac.HashTable
	s.step("ht.prebuild_s", "ht", func() {
		a = amac.NewArena()
		mk := func(keys uint64, pay func(k uint64) uint64) *amac.HashTable {
			t := amac.NewHashTable(a, int(keys))
			for k := uint64(1); k <= keys; k++ {
				t.InsertRaw(k, pay(k))
			}
			return t
		}
		t1 = mk(n, func(k uint64) uint64 { return dimKey(k, dim) })
		t2 = mk(dim, func(k uint64) uint64 { return (k*2654435761)%n + 1 })
		t3 = mk(n, func(k uint64) uint64 { return k * 1000 })
	})
	s.step("ops.materialize_s", "ops", func() {
		pin := amac.NewInput(a, w.rel)
		w.out = amac.NewOutput(a, false)
		w.b = amac.NewPipeline(a)
		w.b.ScanProbe(t1, pin, true)
		w.b.Probe(t2, amac.SelBuildPayload, true)
		w.b.Probe(t3, amac.SelProbePayload, true)
	})
	s.step("pipeline.plan_s", "pipeline", func() {
		w.choice = w.b.Plan(amac.XeonX5670(), size.pipeSample, amac.AdaptiveConfig{})
	})
	for _, tech := range amac.Techniques {
		cfgs := make([]amac.StageConfig, len(w.choice.Configs))
		for i := range cfgs {
			cfgs[i] = amac.StageConfig{Tech: tech, Window: window}
		}
		w.assignments = append(w.assignments, assignment{tech.String(), cfgs})
	}
	w.assignments = append(w.assignments, assignment{"Planner", w.choice.Configs})
	return w
}

// reference counts the rows that survive the chain with plain Go: each table
// holds exactly the keys 1..size, so a stage matches when its key is in range.
func (w *pipelineChain) reference() {
	n, dim := uint64(size.pipeBuild), uint64(size.pipeDim)
	w.refCount = 0
	for _, t := range w.rel.Tuples {
		if t.Key < 1 || t.Key > n {
			continue
		}
		if mid := dimKey(t.Key, dim); mid < 1 || mid > dim {
			continue
		}
		if t.Payload >= 1 && t.Payload <= n {
			w.refCount++
		}
	}
}

// emitClock records the simulated cycle of every result row the sink emits;
// every root row of a batch is available at cycle 0.
type emitClock struct {
	next amac.Collector
	rec  *amac.LatencyRecorder
}

func (e emitClock) Emit(c *amac.Core, rid int, key, buildPayload, probePayload uint64) {
	e.next.Emit(c, rid, key, buildPayload, probePayload)
	e.rec.RecordLatency(c.Cycle())
}

func (w *pipelineChain) pass(p *pass) {
	p.hash(w.choice.Configs, w.choice.SampleRows, w.choice.PlanCycles)
	rows := w.rel.Len()
	var sum uint64
	var designated time.Duration
	var designatedStats amac.Stats
	for ai, a := range w.assignments {
		p.run("pipeline "+a.name, rows, attrs("assignment", a.name), func() {
			c := newCore(p)
			w.out.Reset()
			var coll amac.Collector = w.out
			var rec *amac.LatencyRecorder
			planner := a.name == "Planner"
			if planner {
				rec = newBatchRecorder(rows)
				coll = emitClock{w.out, rec}
			}
			var pl *amac.Pipeline
			p.call("Build", "pipeline", func() { pl = w.b.Build(coll) })
			var res amac.PipelineResult
			d := p.call("Run", "pipeline", func() { res = pl.Run(c, a.cfgs) })
			st := c.Stats()

			if ai == 0 {
				sum = w.out.Checksum
			}
			p.check(w.out.Count == w.refCount && w.out.Checksum == sum,
				"pipeline-chain %s: count %d checksum %x, want %d %x", a.name, w.out.Count, w.out.Checksum, w.refCount, sum)
			p.hash(a.name, st, res, w.out.Count, w.out.Checksum)
			p.layer["pipeline.host_ns_per_row."+a.name] = ns(d) / float64(rows)
			p.layer["pipeline.sim_cycles_per_row."+a.name] = float64(st.Cycles) / float64(rows)
			if !planner {
				return
			}
			for k, sr := range res.Stages {
				out := sr.RowsOut
				if k == len(res.Stages)-1 {
					out = w.out.Count // the sink's rows are in its collector
				}
				p.layer[fmt.Sprintf("pipeline.stage%d.selectivity", k)] = ratio(float64(out), float64(sr.RowsIn))
			}
			p.sim["sim_cycles_per_lookup"] = float64(st.Cycles) / float64(rows)
			latencyMetrics(p, rec)
			designated, designatedStats = d, st
		})
	}
	if p.traced() {
		w.withSinks(p, designated, designatedStats)
	}
}

// withSinks repeats the planner's run with every sink attached.
func (w *pipelineChain) withSinks(p *pass, off time.Duration, offStats amac.Stats) {
	p.extra(func() {
		p.run("pipeline+sinks Planner", w.rel.Len(), attrs("assignment", "Planner", "sinks", "on"), func() {
			c := newCore(p)
			w.out.Reset()
			s := newSinks()
			pl := w.b.Build(w.out)
			pl.SetTrace(s.attach(c, "pipeline"))
			on := p.call("Run", "pipeline", func() { pl.Run(c, w.choice.Configs) })
			sinksRatio(p, on, off)
			p.check(c.Stats() == offStats, "pipeline-chain: sinks changed the simulated statistics")
			s.conserved(p, 0, c.Stats().Cycles)
			s.export(p)
		})
	})
}
