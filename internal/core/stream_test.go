package core_test

import (
	"testing"

	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
)

func TestRunStreamCompletesEveryRequest(t *testing.T) {
	for _, width := range []int{1, 2, 10, 32} {
		lengths := skewedLengths(300, 7)
		m := exectest.NewChainMachine(lengths, 5)
		src := exec.NewMachineSource[exectest.ChainState](m)
		var completions int
		src.OnComplete = func(req exec.Request, done uint64) { completions++ }
		stats := core.RunStream(newCore(), src, core.Options{Width: width})
		checkAllCompleted(t, m)
		if stats.Initiated != 300 || stats.Completed != 300 {
			t.Fatalf("width %d: stats %+v", width, stats)
		}
		if completions != 300 {
			t.Fatalf("width %d: source saw %d completions", width, completions)
		}
	}
}

func TestRunStreamEmptySource(t *testing.T) {
	m := exectest.NewChainMachine(nil, 3)
	stats := core.RunStream(newCore(), exec.NewMachineSource[exectest.ChainState](m), core.Options{Width: 8})
	if stats.Completed != 0 || stats.Initiated != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestRunStreamResolvesLatchConflicts(t *testing.T) {
	m := exectest.NewLatchMachine(200, 3)
	stats := core.RunStream(newCore(), exec.NewMachineSource[exectest.LatchState](m), core.Options{Width: 8})
	if len(m.Completions) != 200 {
		t.Fatalf("completed %d of 200", len(m.Completions))
	}
	if stats.Retries == 0 {
		t.Fatal("in-flight lookups should have conflicted on the latch at least once")
	}
}

func TestRunStreamImmediateRefillAblation(t *testing.T) {
	lengths := skewedLengths(500, 5)

	run := func(disable bool) uint64 {
		c := newCore()
		m := exectest.NewChainMachine(lengths, 3)
		core.RunStream(c, exec.NewMachineSource[exectest.ChainState](m), core.Options{Width: 10, DisableImmediateRefill: disable})
		checkAllCompleted(t, m)
		return c.Cycle()
	}
	if on, off := run(false), run(true); on > off {
		t.Fatalf("immediate refill (%d cycles) should not be slower than deferred refill (%d cycles)", on, off)
	}
}

func TestRunStreamDeterministic(t *testing.T) {
	run := func() uint64 {
		c := newCore()
		m := exectest.NewChainMachine(skewedLengths(300, 9), 4)
		core.RunStream(c, exec.NewMachineSource[exectest.ChainState](m), core.Options{Width: 10})
		return c.Cycle()
	}
	if run() != run() {
		t.Fatal("stream execution must be deterministic")
	}
}

// sparseSource releases one request every gap cycles, for the idle path.
type sparseSource struct {
	*exec.MachineSource[exectest.ChainState]
	gap      uint64
	released int
	n        int
}

func (s *sparseSource) Pull(c *memsim.Core, st *exectest.ChainState, now uint64, pr *exec.PullResult) {
	if s.released >= s.n {
		pr.Status = exec.Exhausted
		return
	}
	due := uint64(s.released) * s.gap
	if due > now {
		pr.Status, pr.NextArrival = exec.Wait, due
		return
	}
	s.MachineSource.Pull(c, st, now, pr)
	if pr.Status == exec.Pulled {
		pr.Req.Admit = due
		s.released++
	}
}

func TestRunStreamIdlesBetweenSparseArrivals(t *testing.T) {
	const n, gap = 25, 200000
	m := exectest.NewChainMachine(uniformLengths(n, 3), 4)
	src := &sparseSource{MachineSource: exec.NewMachineSource[exectest.ChainState](m), gap: gap, n: n}
	c := newCore()
	stats := core.RunStream(c, src, core.Options{Width: 10})
	checkAllCompleted(t, m)
	if stats.Completed != n {
		t.Fatalf("completed %d of %d", stats.Completed, n)
	}
	if c.Cycle() < (n-1)*gap {
		t.Fatalf("clock %d never reached the last arrival %d", c.Cycle(), (n-1)*gap)
	}
	if c.Stats().IdleCycles == 0 {
		t.Fatal("sparse arrivals must be bridged by idle cycles")
	}
}
