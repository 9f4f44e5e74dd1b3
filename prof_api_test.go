package amac_test

import (
	"bytes"
	"strings"
	"testing"

	"amac"
	"amac/internal/prof"
)

// TestCycleProfilePublicAPI drives a profiled run end to end through the
// exported API: attach a per-core profiler, run the AMAC probe, and read the
// attribution back three ways — conservation against the core's cycle
// counter, the breakdown summary, and the folded flamegraph export with the
// engine's context frames in it.
func TestCycleProfilePublicAPI(t *testing.T) {
	join, out := hotColdJoin(t)
	c := amac.MustSystem(amac.XeonX5670()).NewCore()

	pr := amac.NewCycleProfile()
	c.SetProfiler(pr.Core("core 0"))
	amac.Run(c, join.ProbeMachine(out, false), amac.Options{Width: 8})
	c.SetProfiler(nil)

	cp := pr.Cores()[0]
	cycles := c.Stats().Cycles
	if got := cp.TotalCycles(); got != cycles {
		t.Fatalf("attributed %d cycles, core counted %d — conservation broken", got, cycles)
	}
	b := cp.Breakdown()
	if got := b.Total(); got != cycles {
		t.Fatalf("breakdown sums to %d cycles, core counted %d", got, cycles)
	}
	var catSum uint64
	for _, cat := range prof.Cats {
		catSum += b.Cats[cat]
	}
	if catSum != cycles {
		t.Fatalf("category totals sum to %d cycles, core counted %d", catSum, cycles)
	}
	if b.Cats[amac.CycleCompute] == 0 {
		t.Fatal("a probe run charged no compute cycles")
	}

	var folded bytes.Buffer
	if err := pr.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded.String(), "AMAC") {
		t.Fatal("folded export is missing the AMAC engine frame")
	}
	var pb bytes.Buffer
	if err := pr.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	if pb.Len() == 0 {
		t.Fatal("pprof export is empty")
	}
}

// TestDisabledProfilerZeroAllocPublicAPI asserts the disabled profiling path
// — a nil profiler threaded through the exported types — allocates nothing
// at any charge or context site. This is the contract that lets the memory
// system and every engine carry the instrumentation unconditionally.
func TestDisabledProfilerZeroAllocPublicAPI(t *testing.T) {
	var pr *amac.CycleProfile
	allocs := testing.AllocsPerRun(200, func() {
		cp := pr.Core("core 0")
		f := cp.Frame("AMAC")
		cp.Push(f)
		cp.PushStage(2)
		cp.Charge(amac.CycleDRAM, 180)
		cp.Charge(amac.CycleCompute, 3)
		cp.Hide(amac.CycleDRAM, 180)
		cp.Expose(amac.CycleDRAM, 40)
		cp.OffchipFill(180)
		cp.Pop()
		cp.Pop()
		cp.ResetCounts()
		cp.Merge(nil)
		_ = cp.Name()
		_ = cp.Depth()
		_ = cp.TotalCycles()
		_ = cp.CatCycles(amac.CycleDRAM)
		_ = cp.SumUnder("admit", amac.CycleIdle)
		_ = pr.Cores()
		_ = pr.TotalCycles()
	})
	if allocs != 0 {
		t.Fatalf("disabled profiling path allocates %.1f times per run, want 0", allocs)
	}
}
