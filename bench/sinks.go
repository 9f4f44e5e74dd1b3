package main

import (
	"io"
	"time"

	"amac"
)

// sinks is one set of the program's instrumentation sinks: the event trace,
// the metric series and the cycle profile.
type sinks struct {
	trace   *amac.Trace
	metrics *amac.Metrics
	profile *amac.CycleProfile
}

func newSinks() sinks {
	return sinks{trace: amac.NewTrace(0), metrics: amac.NewMetrics(0), profile: amac.NewCycleProfile()}
}

// attach wires the profile and metric sinks to a core that runs outside the
// serving layer, and returns the trace ring for the engine.
func (s sinks) attach(c *amac.Core, name string) *amac.CoreTrace {
	c.SetProfiler(s.profile.Core(name))
	cm := s.metrics.Core(name)
	cm.Gauge("mshr_outstanding", func() float64 { return float64(c.MSHROutstanding()) })
	c.SetCycleHook(s.metrics.Interval(), cm.Tick)
	return s.trace.Core(name)
}

// export writes all four export formats to io.Discard as timed calls, as a
// user of the trace and profile scripts pays for them, and records what the
// sinks captured.
func (s sinks) export(p *pass) {
	var err error
	exports := []struct {
		metric, name, layer string
		write               func(io.Writer) error
	}{
		{"obs.export_chrome_ms", "WriteChrome", "obs", s.trace.WriteChrome},
		{"obs.export_jsonl_ms", "WriteJSONL", "obs", s.metrics.WriteJSONL},
		{"prof.export_pprof_ms", "WritePprof", "prof", s.profile.WritePprof},
		{"prof.export_folded_ms", "WriteFolded", "prof", s.profile.WriteFolded},
	}
	for _, e := range exports {
		d := p.call(e.name, e.layer, func() { err = e.write(io.Discard) })
		p.layer[e.metric] = ms(d)
		p.check(err == nil, "%s: %v", e.name, err)
	}

	var kept, dropped uint64
	for _, ct := range s.trace.Cores() {
		kept += uint64(ct.Len())
		dropped += ct.Dropped()
	}
	p.layer["obs.dropped_event_ratio"] = ratio(float64(dropped), float64(kept+dropped))
	b := s.profile.Merged("all").Breakdown()
	p.layer["prof.dram_hidden_fraction"] = b.HiddenFraction(amac.CycleDRAM)
	p.layer["prof.achieved_mlp"] = b.AchievedMLP()
}

// conserved checks the profiler's invariant: the profile of a core attributes
// exactly the cycles the core counted.
func (s sinks) conserved(p *pass, core int, cycles uint64) {
	cores := s.profile.Cores()
	ok := core < len(cores) && cores[core].TotalCycles() == cycles
	p.check(ok, "profile of core %d does not conserve its %d cycles", core, cycles)
}

// sinksRatio records the host cost of the designated run with every sink
// attached, relative to the same run without sinks.
func sinksRatio(p *pass, on, off time.Duration) {
	p.layer["obs.sinks_on_off_ratio"] = ratio(float64(on), float64(off))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
