package adapt

import (
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/ops"
)

// NewControllerFor builds a controller seeded from the core it will drive:
// when the config leaves Window zero, the starting width (and GP/SPP group
// size) is the core's measured MSHR budget instead of the fixed
// ops.DefaultWindow. The paper finds AMAC saturates once the slot window
// covers the hardware MLP limit, so a controller seeded there starts inside
// the flat region of Figure 6 and the AIMD loop only has to fine-tune.
func NewControllerFor(c *memsim.Core, cfg Config) *Controller {
	if cfg.Window <= 0 {
		cfg.Window = c.MSHRBudget()
	}
	return NewController(cfg)
}

// GroupTuner adapts the GP/SPP group size online. GP and SPP bake their
// group size into their control flow, so unlike AMAC's width it cannot move
// mid-run; what CAN move is the size the next segment or lease is launched
// with. The tuner is an extremum-seeking hill climb over consecutive segment
// costs: step the group size in the current direction while the observed
// cycles-per-lookup keeps improving, reverse when it worsens, hold inside a
// small noise band. On a convex cost curve (too small = not enough overlap,
// too large = cache thrash and deeper bail-outs) it oscillates around the
// minimum with step-sized excursions.
type GroupTuner struct {
	// W is the group size the next segment should launch with.
	W int
	// Min and Max bound the walk.
	Min, Max int
	// Step is the per-decision group-size change. Default 2.
	Step int
	// Band is the relative cost change treated as noise: consecutive
	// segments within the band hold the current size. Default 0.05.
	Band float64

	dir  int
	last float64
}

// NewGroupTuner builds a tuner starting at the given group size.
func NewGroupTuner(start, min, max int) *GroupTuner {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if start < min {
		start = min
	}
	if start > max {
		start = max
	}
	return &GroupTuner{W: start, Min: min, Max: max, Step: 2, Band: 0.05, dir: 1}
}

// Observe feeds one segment's cycles-per-lookup, measured at the group size
// Window() returned before the segment ran, and decides the next size.
func (g *GroupTuner) Observe(cpl float64) {
	if cpl <= 0 {
		return
	}
	if g.last == 0 {
		// First segment: no comparison point yet, explore in the current
		// direction so the second segment produces one.
		g.last = cpl
		g.step()
		return
	}
	switch {
	case cpl > g.last*(1+g.Band):
		g.dir = -g.dir
		g.step()
	case cpl < g.last*(1-g.Band):
		g.step()
	default:
		// Inside the noise band: hold, so a flat region does not chatter.
	}
	// The comparison point tracks slowly, as the drift band's reference
	// does, so gradual change (cache warm-up) is not mistaken for a slope.
	g.last = 0.7*g.last + 0.3*cpl
}

// step moves the group size one step, bouncing off the bounds.
func (g *GroupTuner) step() {
	g.W += g.dir * g.Step
	if g.W <= g.Min {
		g.W, g.dir = g.Min, 1
	}
	if g.W >= g.Max {
		g.W, g.dir = g.Max, -1
	}
}

// groupWindow returns the group size the next GP/SPP segment should launch
// with: the tuned size when group tuning is enabled, the configured window
// otherwise (the calibration probes always use the configured window, so
// probe epochs stay comparable across techniques).
func (ctl *Controller) groupWindow(tech ops.Technique) int {
	if !ctl.cfg.TuneGroupWindow || (tech != ops.GP && tech != ops.SPP) {
		return ctl.cfg.Window
	}
	g := ctl.groups[tech]
	if g == nil {
		if ctl.groups == nil {
			ctl.groups = make(map[ops.Technique]*GroupTuner, 2)
		}
		maxW := 4 * ctl.cfg.Window
		if maxW < 32 {
			maxW = 32
		}
		g = NewGroupTuner(ctl.cfg.Window, 2, maxW)
		ctl.groups[tech] = g
	}
	return g.W
}

// observeGroup feeds an exploited GP/SPP segment's cost into its tuner.
func (ctl *Controller) observeGroup(tech ops.Technique, cpl float64) {
	if !ctl.cfg.TuneGroupWindow || (tech != ops.GP && tech != ops.SPP) {
		return
	}
	if g := ctl.groups[tech]; g != nil {
		g.Observe(cpl)
	}
}

// GroupWindow exposes the group size currently in force for a technique
// (diagnostics and the pipeline planner).
func (ctl *Controller) GroupWindow(tech ops.Technique) int { return ctl.groupWindow(tech) }

// Lease is one streaming work grant decided by a StreamTuner: run the given
// technique over at most Quota admitted requests, then report back.
type Lease struct {
	// Tech is the engine to run.
	Tech ops.Technique
	// Quota is the admission budget.
	Quota int
	// Probe marks a calibration lease (a candidate being measured).
	Probe bool
	// Opts are the engine options: Width is the GP/SPP group size or AMAC's
	// starting width, and an AMAC lease carries the controller's persistent
	// width state. Trace is the controller's trace sink.
	Opts core.Options
}

// StreamTuner is the decision loop of adaptive streaming execution, factored
// out of RunStream so that any engine owner — the serving layer, a pipeline
// stage pumping between downstream pulls — can interleave its own work with
// the controller's probe/exploit cadence. The protocol is strict
// alternation: Next returns the lease to run, the caller executes it against
// the shared source (exec.LeaseSource bounds the admissions) and reports the
// outcome to Observe.
type StreamTuner struct {
	ctl        *Controller
	queueDepth func() int
	lastDepth  int
	probing    int // -1: warm-up lease; 0..len-1: candidate being measured
	best       ops.Technique
	bestCPL    float64
}

// NewStreamTuner builds the decision loop around a controller. queueDepth,
// if non-nil, reports the backlog feeding the stream (admission queue depth,
// pipe occupancy) and arms the queue-pressure retune trigger.
func NewStreamTuner(ctl *Controller, queueDepth func() int) *StreamTuner {
	return &StreamTuner{ctl: ctl, queueDepth: queueDepth, probing: -1}
}

// Next decides the next lease. Uncalibrated, the epoch runs a warm-up lease
// on the incumbent followed by one probe lease per candidate; calibrated, it
// grants exploit leases of RetuneRequests under the chosen technique.
func (t *StreamTuner) Next() Lease {
	ctl := t.ctl
	cfg := ctl.cfg
	tech := ctl.chosen
	quota := cfg.RetuneRequests
	probe := false
	if !ctl.calibrated {
		quota = cfg.ProbeRequests
		probe = true
		if t.probing >= 0 {
			tech = cfg.Techniques[t.probing]
		} else {
			// The warm-up lease is granted exactly once per epoch, so it marks
			// the epoch boundary in the decision log.
			ctl.record(KindProbeStart, ctl.chosen, ctl.chosen, 0)
		}
		// probing == -1 keeps the incumbent: an unmeasured warm-up lease so
		// the first probed candidate is not penalised with cold caches.
	}
	if !probe && tech != ops.AMAC && ctl.tailSafe() {
		// The serving layer's SLO brownout is shedding load: prefer the
		// tail-robust engine over the calibrated cheapest one until the p99
		// recovers.
		tech = ops.AMAC
	}
	l := Lease{Tech: tech, Quota: quota, Probe: probe, Opts: core.Options{Width: cfg.Window, Trace: ctl.trace}}
	if tech == ops.AMAC {
		l.Opts = ctl.amacOptions()
	} else if !probe {
		l.Opts.Width = ctl.groupWindow(tech)
	}
	return l
}

// Observe reports an executed lease: how many requests completed, the busy
// (non-idle) cycles they took, the AMAC scheduler stats if any, and whether
// the underlying source ended. It advances the probe epoch or feeds the
// drift and queue-pressure detectors, exactly as the monolithic RunStream
// loop did.
func (t *StreamTuner) Observe(l Lease, completed int, busyCycles uint64, sched core.RunStats, exhausted bool) {
	ctl := t.ctl
	cfg := ctl.cfg
	ctl.account(l.Tech, completed, sched)

	// Busy cycles per completion: idle time is traffic, not service cost, so
	// it is excluded — the controller compares how much work a request costs
	// under each technique, which is what determines both capacity and the
	// queue's drain rate.
	cpl := 0.0
	if completed > 0 {
		cpl = float64(busyCycles) / float64(completed)
	}

	if !ctl.calibrated {
		if t.probing >= 0 && cpl > 0 && (t.bestCPL == 0 || cpl < t.bestCPL) {
			t.best, t.bestCPL = l.Tech, cpl
		}
		t.probing++
		if t.probing == len(cfg.Techniques) || exhausted {
			if t.bestCPL > 0 {
				ctl.calibrate(t.best, t.bestCPL, ctl.info.Probes == 0)
				if t.queueDepth != nil {
					// Seed the queue-pressure baseline with the backlog the
					// probe epoch itself left behind, so the first exploit
					// lease compares against it instead of a vacuous zero —
					// the chosen engine deserves one lease to start draining
					// what probing queued up.
					t.lastDepth = t.queueDepth()
				}
			}
			t.probing, t.bestCPL = -1, 0
		}
		return
	}

	ctl.observeGroup(l.Tech, cpl)
	if l.Tech == ctl.chosen {
		// A tail-safe lease runs AMAC while the calibration references the
		// chosen technique's cost; feeding it to the drift detector would
		// compare apples to oranges and churn re-probes mid-brownout.
		ctl.observe(cpl)
	}
	if t.queueDepth != nil {
		// A queue that doubled across a lease AND holds several windows'
		// worth of backlog means the service fell behind the offered load:
		// re-probe even if the per-request cost looks stable. The absolute
		// floor matters — bursty arrivals spike the depth by a burst length
		// every burst, and re-probing on every burst echo would serve probe
		// leases under load and inflate the very tail the controller exists
		// to protect.
		d := t.queueDepth()
		if d > 2*t.lastDepth && d > 4*cfg.Window {
			// Same contract as a drift retune: the width tuning belonged to
			// the old regime, so reset it too.
			ctl.recalibrate(KindQueueReprobe, cpl)
		}
		t.lastDepth = d
	}
}

// RunLease executes one lease over the source on core c and reports it to
// the tuner, returning the lease wrapper for inspection (completions,
// exhaustion, a recorded wait) and the AMAC scheduler stats; gate and noWait
// configure the lease's backpressure hooks.
func RunLease[S any](c *memsim.Core, src exec.Source[S], t *StreamTuner, l Lease, gate func() bool, noWait bool) (*exec.LeaseSource[S], core.RunStats) {
	lease := &exec.LeaseSource[S]{Src: src, Quota: l.Quota, Gate: gate, NoWait: noWait}
	before := c.Stats()
	sched := ops.RunSource(c, lease, l.Tech, l.Opts)
	after := c.Stats()
	busy := (after.Cycles - before.Cycles) - (after.IdleCycles - before.IdleCycles)
	t.ctl.now = c.Cycle()
	t.Observe(l, lease.Completed, busy, sched, lease.Exhausted)
	return lease, sched
}
