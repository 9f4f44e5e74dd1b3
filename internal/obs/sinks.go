package obs

import (
	"amac/internal/memsim"
	"amac/internal/prof"
)

// Sinks is the set of sinks one run records into: the event trace, the gauge
// time series and the cycle-attribution profile. A nil field disables that
// sink, so the zero value records nothing. Attach wires all three onto a
// core in one call.
type Sinks struct {
	Trace   *Trace
	Metrics *Metrics
	Profile *prof.Profile
}

// Attached is one core's handles into a Sinks, returned by Attach.
type Attached struct {
	// Trace is the core's event ring, to hand to the engine, queue or
	// pipeline that runs on the core. With metrics but no trace it is an
	// unregistered discard ring: the width gauge still needs a live holder
	// to read. With neither it is nil.
	Trace *CoreTrace
	// Metrics is the core's gauge collection (nil without metrics). Callers
	// add their own gauges to it before the run starts.
	Metrics *CoreMetrics

	core *memsim.Core
	// gauged is the core the shared gauges read. Detach clears it: a
	// registry reused for a later run still polls these gauges, and a
	// pooled core may by then be running another worker's goroutine.
	gauged **memsim.Core
}

// Attach registers core under name in every enabled sink, installs the
// profiler and, with metrics, the sampling cycle hook, and registers the
// gauges every core shares: width, mshr_outstanding and stall_fraction.
// Call it after the core's warm-up and ResetStats, so only the measured run
// is recorded, and call Detach when the run is over. Registration order is
// export order, so attach cores in a fixed order from one goroutine.
func (s Sinks) Attach(core *memsim.Core, name string) Attached {
	a := Attached{Trace: s.Trace.Core(name), Metrics: s.Metrics.Core(name), core: core}
	if a.Trace == nil && a.Metrics != nil {
		a.Trace = newDiscardCore()
	}
	core.SetProfiler(s.Profile.Core(name))
	if cm := a.Metrics; cm != nil {
		tr, c := a.Trace, core
		a.gauged = &c
		cm.Gauge("width", func() float64 {
			if c == nil {
				return 0
			}
			return float64(tr.Width())
		})
		cm.Gauge("mshr_outstanding", func() float64 {
			if c == nil {
				return 0
			}
			return float64(c.MSHROutstanding())
		})
		var prev memsim.Stats
		cm.Gauge("stall_fraction", func() float64 {
			if c == nil {
				return 0
			}
			st := c.Stats()
			busy := (st.Cycles - prev.Cycles) - (st.IdleCycles - prev.IdleCycles)
			stall := st.StallCycles - prev.StallCycles
			prev = st
			if busy == 0 {
				return 0
			}
			return float64(stall) / float64(busy)
		})
		core.SetCycleHook(s.Metrics.Interval(), cm.Tick)
	}
	return a
}

// Detach removes the cycle hook and profiler from the core, so a pooled or
// reused core never carries a sink past its run, and turns the shared
// gauges to 0, so a reused metrics registry never reads the core again.
func (a Attached) Detach() {
	a.core.SetCycleHook(0, nil)
	a.core.SetProfiler(nil)
	if a.gauged != nil {
		*a.gauged = nil
	}
}
