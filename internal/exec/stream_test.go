package exec_test

import (
	"testing"

	"amac/internal/exec"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
	"amac/internal/xrand"
)

func newStreamCore() *memsim.Core {
	sys := memsim.MustSystem(memsim.XeonX5670())
	return sys.NewCore()
}

func streamLengths(n int, seed uint64) []int {
	rng := xrand.New(seed)
	ls := make([]int, n)
	for i := range ls {
		if rng.Intn(10) == 0 {
			ls[i] = 8 + rng.Intn(12)
		} else {
			ls[i] = 1 + rng.Intn(3)
		}
	}
	return ls
}

// runStreamEngine names each adapter so table tests can sweep them.
var streamEngines = map[string]func(c *memsim.Core, src exec.Source[exectest.ChainState]){
	"BaselineStream": func(c *memsim.Core, src exec.Source[exectest.ChainState]) {
		exec.BaselineStream(c, src, nil)
	},
	"GroupPrefetchStream": func(c *memsim.Core, src exec.Source[exectest.ChainState]) {
		exec.GroupPrefetchStream(c, src, 8, nil)
	},
	"SoftwarePipelineStream": func(c *memsim.Core, src exec.Source[exectest.ChainState]) {
		exec.SoftwarePipelineStream(c, src, 8, nil)
	},
}

func TestStreamAdaptersCompleteEveryRequest(t *testing.T) {
	for name, run := range streamEngines {
		t.Run(name, func(t *testing.T) {
			lengths := streamLengths(300, 11)
			m := exectest.NewChainMachine(lengths, 3)
			src := exec.NewMachineSource[exectest.ChainState](m)
			var completions int
			lastDone := uint64(0)
			src.OnComplete = func(req exec.Request, done uint64) {
				completions++
				if done < lastDone {
					t.Fatalf("completion cycles must be non-decreasing: %d after %d", done, lastDone)
				}
				lastDone = done
			}
			c := newStreamCore()
			run(c, src)
			if completions != len(lengths) {
				t.Fatalf("source saw %d completions, want %d", completions, len(lengths))
			}
			if idle := c.Stats().IdleCycles; idle != 0 {
				t.Fatalf("a batch replay (everything admitted at cycle 0) must never idle, got %d idle cycles", idle)
			}
			if len(m.Completions) != len(lengths) {
				t.Fatalf("machine completed %d of %d lookups", len(m.Completions), len(lengths))
			}
			for i, want := range lengths {
				if m.Visits[i] != want {
					t.Fatalf("lookup %d visited %d nodes, want %d", i, m.Visits[i], want)
				}
			}
		})
	}
}

func TestStreamAdaptersHandleEmptySource(t *testing.T) {
	for name, run := range streamEngines {
		t.Run(name, func(t *testing.T) {
			m := exectest.NewChainMachine(nil, 3)
			c := newStreamCore()
			run(c, exec.NewMachineSource[exectest.ChainState](m))
			if len(m.Completions) != 0 {
				t.Fatal("empty source must complete nothing")
			}
		})
	}
}

func TestStreamAdaptersResolveLatchConflicts(t *testing.T) {
	// GP and SPP must drain latch-conflicting requests through their retry
	// and bail-out paths without deadlocking; the baseline serializes, so
	// conflicts cannot arise there at all.
	for name, engine := range map[string]func(c *memsim.Core, src exec.Source[exectest.LatchState]){
		"GroupPrefetchStream": func(c *memsim.Core, src exec.Source[exectest.LatchState]) {
			exec.GroupPrefetchStream(c, src, 6, nil)
		},
		"SoftwarePipelineStream": func(c *memsim.Core, src exec.Source[exectest.LatchState]) {
			exec.SoftwarePipelineStream(c, src, 6, nil)
		},
	} {
		t.Run(name, func(t *testing.T) {
			m := exectest.NewLatchMachine(150, 3)
			engine(newStreamCore(), exec.NewMachineSource[exectest.LatchState](m))
			if len(m.Completions) != 150 {
				t.Fatalf("completed %d of 150 latched lookups", len(m.Completions))
			}
		})
	}
}

// delayedSource wraps a MachineSource and releases requests only at
// scheduled cycles, to exercise the Wait/AdvanceTo path without pulling in
// the serve package (which depends on exec).
type delayedSource struct {
	*exec.MachineSource[exectest.ChainState]
	arrivals []uint64
	released int
}

func (d *delayedSource) Pull(c *memsim.Core, s *exectest.ChainState, now uint64, pr *exec.PullResult) {
	if d.released >= len(d.arrivals) {
		pr.Status = exec.Exhausted
		return
	}
	if d.arrivals[d.released] > now {
		pr.Status, pr.NextArrival = exec.Wait, d.arrivals[d.released]
		return
	}
	d.MachineSource.Pull(c, s, now, pr)
	if pr.Status == exec.Pulled {
		pr.Req.Admit = d.arrivals[d.released]
		d.released++
	}
}

func TestStreamAdaptersIdleUntilArrivals(t *testing.T) {
	// Requests arrive far apart: every engine must idle-advance to each
	// arrival instead of spinning, and still complete everything.
	const n = 20
	const gap = 100000
	arrivals := make([]uint64, n)
	for i := range arrivals {
		arrivals[i] = uint64(i) * gap
	}
	for name, run := range streamEngines {
		t.Run(name, func(t *testing.T) {
			m := exectest.NewChainMachine(streamLengths(n, 5), 3)
			src := &delayedSource{MachineSource: exec.NewMachineSource[exectest.ChainState](m), arrivals: arrivals}
			c := newStreamCore()
			run(c, src)
			if len(m.Completions) != n {
				t.Fatalf("completed %d of %d", len(m.Completions), n)
			}
			if c.Cycle() < arrivals[n-1] {
				t.Fatalf("clock %d never reached the last arrival %d", c.Cycle(), arrivals[n-1])
			}
			if idle := c.Stats().IdleCycles; idle == 0 {
				t.Fatal("sparse arrivals must be bridged by idle cycles, not busy work")
			}
		})
	}
}
