package amac_test

import (
	"testing"

	"amac"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way the
// quickstart example does: generate a workload, run it under every
// technique, and verify the results agree.
func TestPublicAPIEndToEnd(t *testing.T) {
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	join := amac.NewHashJoin(build, probe)
	join.PrebuildRaw()
	wantCount, wantSum := join.ReferenceJoin()

	for _, tech := range amac.Techniques {
		sys, err := amac.NewSystem(amac.XeonX5670())
		if err != nil {
			t.Fatal(err)
		}
		core := sys.NewCore()
		out := amac.NewOutput(join.Arena, false)
		amac.RunWith(core, join.ProbeMachine(out, false), tech, amac.Params{Window: 8})
		if out.Count != wantCount || out.Checksum != wantSum {
			t.Fatalf("%s: results differ from reference", tech)
		}
		if core.Cycle() == 0 || core.Stats().Instructions == 0 {
			t.Fatalf("%s: core charged no work", tech)
		}
	}
}

// TestDirectEngineEntryPoints drives AMAC and Baseline through their
// dedicated functions and GP and SPP through RunWith.
func TestDirectEngineEntryPoints(t *testing.T) {
	build, probe, err := amac.BuildIndexWorkload(1<<9, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := amac.NewBSTWorkload(build, probe)

	run := func(f func(c *amac.Core, out *amac.Output)) uint64 {
		sys := amac.MustSystem(amac.XeonX5670())
		c := sys.NewCore()
		out := amac.NewOutput(w.Arena, false)
		f(c, out)
		if int(out.Count) != probe.Len() {
			t.Fatalf("search found %d of %d keys", out.Count, probe.Len())
		}
		return c.Cycle()
	}

	base := run(func(c *amac.Core, out *amac.Output) { amac.RunBaseline(c, w.SearchMachine(out)) })
	gp := run(func(c *amac.Core, out *amac.Output) {
		amac.RunWith(c, w.SearchMachine(out), amac.GP, amac.Params{Window: 10})
	})
	spp := run(func(c *amac.Core, out *amac.Output) {
		amac.RunWith(c, w.SearchMachine(out), amac.SPP, amac.Params{Window: 10})
	})
	var stats amac.RunStats
	am := run(func(c *amac.Core, out *amac.Output) {
		stats = amac.Run(c, w.SearchMachine(out), amac.Options{Width: 10})
	})

	if stats.Completed != probe.Len() {
		t.Fatalf("AMAC completed %d of %d", stats.Completed, probe.Len())
	}
	for name, cycles := range map[string]uint64{"baseline": base, "GP": gp, "SPP": spp, "AMAC": am} {
		if cycles == 0 {
			t.Fatalf("%s consumed no cycles", name)
		}
	}
}

func TestGroupByFacade(t *testing.T) {
	rel, err := amac.BuildGroupBy(amac.GroupBySpec{Size: 900, Repeats: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := amac.NewGroupBy(rel, 300)
	sys := amac.MustSystem(amac.SPARCT4())
	amac.RunWith(sys.NewCore(), g.Machine(), amac.AMAC, amac.Params{})
	groups := g.Table.Groups()
	if len(groups) != 300 {
		t.Fatalf("got %d groups, want 300", len(groups))
	}
	var agg amac.Aggregates = groups[0]
	if agg.Count == 0 || agg.Avg() <= 0 {
		t.Fatal("aggregates not populated")
	}
}

// TestCustomMachineThroughPublicAPI verifies that user code can define its
// own Machine and schedule it with AMAC, which is the library's primary
// extension point.
func TestCustomMachineThroughPublicAPI(t *testing.T) {
	m := &countdownMachine{lookups: 64, hops: 3}
	sys := amac.MustSystem(amac.XeonX5670())
	stats := amac.Run(sys.NewCore(), m, amac.Options{Width: 4})
	if stats.Completed != 64 || m.visits != 64*3 {
		t.Fatalf("completed %d, visits %d", stats.Completed, m.visits)
	}
}

// countdownMachine is a minimal user-defined Machine: each lookup performs a
// fixed number of dependent accesses at synthetic addresses.
type countdownMachine struct {
	lookups int
	hops    int
	visits  int
}

type countdownState struct {
	remaining int
	addr      amac.Addr
}

func (m *countdownMachine) NumLookups() int        { return m.lookups }
func (m *countdownMachine) ProvisionedStages() int { return m.hops + 1 }

func (m *countdownMachine) Init(c *amac.Core, s *countdownState, i int) amac.Outcome {
	c.Instr(2)
	s.remaining = m.hops
	s.addr = amac.Addr(1+i) << 20
	return amac.Outcome{NextStage: 1, Prefetch: s.addr}
}

func (m *countdownMachine) Stage(c *amac.Core, s *countdownState, stage int) amac.Outcome {
	c.Load(s.addr, 8)
	m.visits++
	s.remaining--
	if s.remaining == 0 {
		return amac.Outcome{Done: true}
	}
	s.addr += 37 * amac.LineSize
	return amac.Outcome{NextStage: 1, Prefetch: s.addr}
}
