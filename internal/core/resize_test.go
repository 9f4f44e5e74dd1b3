package core_test

import (
	"testing"

	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/exec/exectest"
)

// scriptController replays a fixed width script, one entry per probe sample,
// holding the last entry once the script is exhausted. It also records the
// windows it saw so tests can check the probe plumbing.
type scriptController struct {
	widths  []int
	next    int
	windows []exec.Window
}

func (s *scriptController) Sample(w exec.Window) int {
	s.windows = append(s.windows, w)
	if s.next < len(s.widths) {
		s.next++
	}
	if s.next == 0 {
		return 0
	}
	return s.widths[s.next-1]
}

// TestAMACResizeMidRunCompletesAll: a run whose width is yanked up and down
// mid-flight must still execute every lookup exactly once with exactly the
// right number of node visits — growth activates fresh slots, shrinkage
// drains the surplus without abandoning in-flight work.
func TestAMACResizeMidRunCompletesAll(t *testing.T) {
	for _, tc := range []struct {
		n, seed int
		script  []int
	}{
		{500, 11, []int{16, 4, 12, 2, 20}},
		{500, 11, []int{1}},      // collapse to a single slot and stay there
		{500, 11, []int{24, 24}}, // grow to the cap and hold
		{500, 11, []int{2, 24, 2, 24}},
		{400, 9, []int{16, 2, 12}},
		{400, 9, []int{1}},
		{400, 9, []int{24}},
	} {
		m := exectest.NewChainMachine(skewedLengths(tc.n, uint64(tc.seed)), 5)
		ctl := &scriptController{widths: tc.script}
		stats := core.Run(newCore(), m, core.Options{
			Width: 8, Controller: ctl, MaxWidth: 24, ProbeInterval: 10,
		})
		checkAllCompleted(t, m)
		if stats.Initiated != tc.n || stats.Completed != tc.n {
			t.Fatalf("script %v: stats %+v", tc.script, stats)
		}
		if stats.WidthChanges == 0 {
			t.Fatalf("script %v: no width changes recorded", tc.script)
		}
		if stats.MinWidth > 8 || stats.MaxWidth < 8 {
			t.Fatalf("script %v: width extremes [%d, %d] exclude the start width", tc.script, stats.MinWidth, stats.MaxWidth)
		}
		if len(ctl.windows) == 0 {
			t.Fatalf("script %v: controller never sampled", tc.script)
		}
	}
}

// TestAMACResizeWindowsCarrySignal: probe windows must carry non-trivial
// counter deltas (cycles advance, lookups complete, memory activity shows)
// and be spaced at least the probe interval apart.
func TestAMACResizeWindowsCarrySignal(t *testing.T) {
	m := exectest.NewChainMachine(uniformLengths(400, 4), 5)
	ctl := &scriptController{}
	core.Run(newCore(), m, core.Options{Width: 10, Controller: ctl, ProbeInterval: 40})
	if len(ctl.windows) < 5 {
		t.Fatalf("expected several probe windows, got %d", len(ctl.windows))
	}
	for i, w := range ctl.windows {
		if w.Cycles == 0 || w.Completed == 0 {
			t.Fatalf("window %d carries no signal: %+v", i, w)
		}
		if w.Width != 10 {
			t.Fatalf("window %d width = %d, want 10 (script never resizes)", i, w.Width)
		}
		if w.Completed < 40 {
			t.Fatalf("window %d spans %d completions, fewer than the probe interval 40", i, w.Completed)
		}
	}

	// The default spacing is Width*DefaultProbeFactor, floored at
	// MinProbeInterval for a narrow window.
	narrow := &scriptController{}
	core.Run(newCore(), exectest.NewChainMachine(uniformLengths(400, 4), 5), core.Options{Width: 4, Controller: narrow})
	if len(narrow.windows) == 0 {
		t.Fatal("narrow run never sampled")
	}
	for i, w := range narrow.windows {
		if w.Completed < core.MinProbeInterval {
			t.Fatalf("narrow window %d spans %d completions, fewer than MinProbeInterval", i, w.Completed)
		}
	}
}

// TestAMACResizeClampsToCap: a controller demanding absurd positive widths
// is clamped to [1, MaxWidth] (negative returns are the StopRun contract,
// covered by the stop tests).
func TestAMACResizeClampsToCap(t *testing.T) {
	m := exectest.NewChainMachine(uniformLengths(300, 3), 4)
	ctl := &scriptController{widths: []int{1000, 2, 7}}
	stats := core.Run(newCore(), m, core.Options{
		Width: 4, Controller: ctl, MaxWidth: 12, ProbeInterval: 8,
	})
	checkAllCompleted(t, m)
	if stats.MaxWidth > 12 {
		t.Fatalf("width grew past the cap: %+v", stats)
	}
	if stats.MinWidth < 1 {
		t.Fatalf("width fell below 1: %+v", stats)
	}
}

// TestAMACControllerMatchesStaticOutput: with a controller that always keeps
// the width, the run performs the same work as the static engine (same
// visits and completions; the only difference is the probe overhead).
func TestAMACControllerMatchesStaticOutput(t *testing.T) {
	lengths := skewedLengths(400, 3)
	static := exectest.NewChainMachine(lengths, 5)
	core.Run(newCore(), static, core.Options{Width: 10})

	held := exectest.NewChainMachine(lengths, 5)
	core.Run(newCore(), held, core.Options{Width: 10, Controller: &scriptController{}, ProbeInterval: 32})

	checkAllCompleted(t, held)
	for i := range lengths {
		if static.Visits[i] != held.Visits[i] {
			t.Fatalf("lookup %d: static visits %d, controller-held visits %d", i, static.Visits[i], held.Visits[i])
		}
	}
}

// liveSource hides a MachineSource's exec.Finite interface, so the engine
// sees a live stream whose end only an exhausted poll reveals.
type liveSource struct {
	exec.Source[exectest.ChainState]
}

// TestStreamResizeCompletesAll: the streaming engine over a live source,
// which it cannot clamp to or count down, must serve every request exactly
// once under mid-run resizes.
func TestStreamResizeCompletesAll(t *testing.T) {
	for _, script := range [][]int{{16, 2, 12}, {1}, {24}} {
		m := exectest.NewChainMachine(skewedLengths(400, 9), 5)
		src := liveSource{exec.NewMachineSource[exectest.ChainState](m)}
		stats := core.RunStream(newCore(), src, core.Options{
			Width: 8, Controller: &scriptController{widths: script}, MaxWidth: 24, ProbeInterval: 10,
		})
		checkAllCompleted(t, m)
		if stats.Initiated != 400 || stats.Completed != 400 {
			t.Fatalf("script %v: stats %+v", script, stats)
		}
		if stats.WidthChanges == 0 {
			t.Fatalf("script %v: no width changes recorded", script)
		}
	}
}

// TestAMACNoSampleAfterLastLookup: a batch run ends the moment its last
// lookup completes, so a probe window that closes on that completion is
// never sampled — the controller would only be charged for, and could only
// act on, a run that is already over.
func TestAMACNoSampleAfterLastLookup(t *testing.T) {
	ctl := &scriptController{}
	m := exectest.NewChainMachine(uniformLengths(64, 3), 4)
	core.Run(newCore(), m, core.Options{Width: 4, Controller: ctl, ProbeInterval: 32})
	checkAllCompleted(t, m)
	if len(ctl.windows) != 1 {
		t.Fatalf("controller sampled %d windows, want 1 (at 32 completions, none at the final 64th)", len(ctl.windows))
	}
}

// stopAfterController requests StopRun after a fixed number of samples.
type stopAfterController struct {
	samples int
	stop    int
}

func (s *stopAfterController) Sample(w exec.Window) int {
	s.samples++
	if s.samples >= s.stop {
		return exec.StopRun
	}
	return 0
}

// TestAMACStopRunDrainsAndReports: a StopRun verdict must close admission
// while requests remain, drain every in-flight lookup (no partial chains, no
// double visits) and report the consumed prefix in Initiated so the caller
// can resume.
func TestAMACStopRunDrainsAndReports(t *testing.T) {
	for _, tc := range []struct{ n, seed int }{{600, 13}, {500, 21}} {
		lengths := skewedLengths(tc.n, uint64(tc.seed))
		m := exectest.NewChainMachine(lengths, 5)
		stats := core.Run(newCore(), m, core.Options{
			Width: 8, Controller: &stopAfterController{stop: 3}, ProbeInterval: 20,
		})
		if stats.Initiated >= tc.n {
			t.Fatalf("run was not stopped early: %+v", stats)
		}
		if stats.Completed != stats.Initiated {
			t.Fatalf("stop must drain every initiated lookup: %+v", stats)
		}
		if len(m.Completions) != stats.Completed {
			t.Fatalf("machine saw %d completions, stats %d", len(m.Completions), stats.Completed)
		}
		// Every completed lookup ran its full chain; none ran twice.
		seen := make(map[int]bool)
		for _, idx := range m.Completions {
			if seen[idx] {
				t.Fatalf("lookup %d completed twice", idx)
			}
			seen[idx] = true
			if m.Visits[idx] != lengths[idx] {
				t.Fatalf("lookup %d drained after %d of %d visits", idx, m.Visits[idx], lengths[idx])
			}
		}

		// Resuming from Initiated covers the rest exactly once.
		rest := exec.Shard[exectest.ChainState]{M: m, Lo: stats.Initiated, N: tc.n - stats.Initiated}
		core.Run(newCore(), rest, core.Options{Width: 8})
		checkAllCompleted(t, m)
	}
}

// TestStreamStopRunReturns: the streaming engine over a live source must
// honour StopRun while the source still has requests, draining in-flight
// work first.
func TestStreamStopRunReturns(t *testing.T) {
	m := exectest.NewChainMachine(skewedLengths(500, 21), 5)
	src := liveSource{exec.NewMachineSource[exectest.ChainState](m)}
	stats := core.RunStream(newCore(), src, core.Options{
		Width: 8, Controller: &stopAfterController{stop: 3}, ProbeInterval: 20,
	})
	if stats.Initiated >= 500 {
		t.Fatalf("stream was not stopped early: %+v", stats)
	}
	if stats.Completed != stats.Initiated {
		t.Fatalf("stop must drain in-flight requests: %+v", stats)
	}
	if len(m.Completions) != stats.Completed {
		t.Fatalf("machine saw %d completions, stats %d", len(m.Completions), stats.Completed)
	}
}

// flipFlopController stops on its second sample and would demand growth on
// any later one — a latched stop must never give it that later sample.
type flipFlopController struct{ samples int }

func (f *flipFlopController) Sample(w exec.Window) int {
	f.samples++
	if f.samples == 2 {
		return exec.StopRun
	}
	return 16
}

// TestAMACStopRunIsLatched: once a controller says StopRun, the engine must
// not consult it again during the drain — a late positive verdict reopening
// admission would turn a stopped run into a full one.
func TestAMACStopRunIsLatched(t *testing.T) {
	m := exectest.NewChainMachine(skewedLengths(800, 3), 5)
	ctl := &flipFlopController{}
	stats := core.Run(newCore(), m, core.Options{
		Width: 8, Controller: ctl, MaxWidth: 24, ProbeInterval: 4,
	})
	if stats.Initiated >= 800 {
		t.Fatalf("stopped run served the whole input: %+v", stats)
	}
	if stats.Completed != stats.Initiated {
		t.Fatalf("stop must drain exactly the initiated lookups: %+v", stats)
	}
	if ctl.samples != 2 {
		t.Fatalf("controller sampled %d times; sampling must end at the StopRun verdict", ctl.samples)
	}
}
