// Package adapt implements the adaptive execution subsystem: an online,
// feedback-driven controller that picks the pointer-chasing technique
// (Baseline, GP, SPP or AMAC) per execution phase and resizes the AMAC slot
// window mid-run.
//
// The paper's core argument for AMAC over group prefetching and software
// pipelining is flexibility: per-slot state makes the number of in-flight
// accesses a runtime knob and tolerates divergent control flow. This package
// turns that argument into a subsystem. A Controller watches cheap per-window
// execution samples (package exec's Window, fed by core.Run/RunStream) and
// per-segment cycle counts, and drives two loops:
//
//   - Technique selection (probe/exploit): a short probe epoch measures every
//     candidate technique on adjacent input segments and locks onto the
//     cheapest; exploitation then monitors cycles-per-lookup and re-probes
//     when the observed cost drifts outside a band around the calibrated
//     reference — the signature of a phase change (a working set outgrowing
//     the LLC, probe keys going cold, an operator switch). Hit-heavy phases
//     favour the baseline's lean loop; miss-heavy phases favour AMAC.
//   - AMAC width control (WidthAIMD): additive growth while stalls dominate,
//     multiplicative back-off when MSHR-full waits appear, a glide to the
//     floor on compute-bound phases. The controller persists across
//     segments, runs and operators, so tuning carries over.
//
// Controllers are engine-local state: one per core/shard, never shared
// across goroutines. The sharded layers (exec.RunParallel, serve.Run) give
// every worker its own.
package adapt

import (
	"fmt"

	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
)

// Config tunes a Controller. The zero value selects the documented defaults.
type Config struct {
	// Techniques are the candidates the probe epochs measure. Empty selects
	// all four (Baseline, GP, SPP, AMAC).
	Techniques []ops.Technique
	// Window is the in-flight window for GP and SPP and the AMAC starting
	// width. Zero selects ops.DefaultWindow.
	Window int
	// SegmentLookups is the exploit segment length in lookups: the
	// granularity at which drift is checked and a technique switch can
	// happen. Zero selects 4096.
	SegmentLookups int
	// ProbeLookups is the per-candidate probe segment length. Short probes
	// keep the steady-phase cost of measuring the losing techniques small.
	// Zero selects 512.
	ProbeLookups int
	// RetuneRequests is the streaming exploit lease: how many served
	// requests between controller decisions in RunStream. Zero selects 512.
	RetuneRequests int
	// ProbeRequests is the streaming probe lease length. Zero selects 128.
	ProbeRequests int
	// TuneGroupWindow enables adaptive GP/SPP group-size control: exploited
	// GP/SPP segments relaunch with a controller-chosen group size (a
	// GroupTuner hill-climb per technique) instead of the fixed Window.
	// Calibration probes always use Window so the candidates stay
	// comparable. Off by default: group retuning changes segment launch
	// parameters, and static sweeps must stay bit-identical.
	TuneGroupWindow bool
}

// minWidth and maxWidth bound AMAC's adaptive slot window.
const (
	minWidth = 2
	maxWidth = 32
)

// driftUp and driftDown bound the no-reprobe band around the calibrated
// cycles-per-lookup reference: leaving it in either direction triggers a
// probe epoch (costlier per lookup means the chosen technique degraded;
// much cheaper means another technique may now win by more). The downward
// band is deliberately wide — gradual improvement (a hot set warming into
// the caches) should track through the reference's EWMA, not re-probe on
// every step of the ramp; only a sharp collapse in cost signals a genuine
// phase change.
const (
	driftUp   = 1.25
	driftDown = 0.50
)

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if len(c.Techniques) == 0 {
		c.Techniques = ops.Techniques
	}
	if c.Window <= 0 {
		c.Window = ops.DefaultWindow
	}
	if c.SegmentLookups <= 0 {
		c.SegmentLookups = 4096
	}
	if c.ProbeLookups <= 0 {
		c.ProbeLookups = 512
	}
	if c.ProbeLookups > c.SegmentLookups {
		c.ProbeLookups = c.SegmentLookups
	}
	if c.RetuneRequests <= 0 {
		c.RetuneRequests = 512
	}
	if c.ProbeRequests <= 0 {
		c.ProbeRequests = 128
	}
	return c
}

// Info reports what a controller did, for diagnostics tables and tests.
type Info struct {
	// Probes counts probe epochs (including the initial calibration).
	Probes int
	// Switches counts technique changes decided by probe epochs.
	Switches int
	// Segments counts executed segments and leases, probes included.
	Segments int
	// Lookups tallies lookups served per technique.
	Lookups map[ops.Technique]int
	// Sched aggregates the AMAC scheduler stats of every AMAC segment
	// (width extremes and resize counts included).
	Sched core.RunStats
	// Final is the technique in force when the controller last ran; for
	// merged multi-shard tallies it is the technique that served the most
	// lookups (shards may disagree, so "last in force" has no merged
	// meaning).
	Final ops.Technique
	// Decisions is the controller's decision log: every probe epoch,
	// calibration, technique switch and reprobe trigger, stamped with the
	// simulated cycle it was taken at. Merged multi-shard tallies
	// concatenate the shards' logs (each shard runs its own clock).
	Decisions []Decision
}

// Share returns the fraction of lookups served by the given technique.
func (i Info) Share(t ops.Technique) float64 {
	total := 0
	for _, n := range i.Lookups {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(i.Lookups[t]) / float64(total)
}

// Merge folds another controller's tallies into i (sharded runs). Final
// becomes the technique serving the most merged lookups — shards may settle
// on different techniques, so "last in force" has no merged meaning.
func (i *Info) Merge(other Info) {
	i.Probes += other.Probes
	i.Switches += other.Switches
	i.Segments += other.Segments
	if i.Lookups == nil {
		i.Lookups = make(map[ops.Technique]int)
	}
	for t, n := range other.Lookups {
		i.Lookups[t] += n
	}
	i.Sched.Add(other.Sched)
	i.Decisions = append(i.Decisions, other.Decisions...)
	i.Final = other.Final
	for _, t := range ops.Techniques {
		if i.Lookups[t] > i.Lookups[i.Final] {
			i.Final = t
		}
	}
}

// String renders a compact one-line summary.
func (i Info) String() string {
	return fmt.Sprintf("final=%v probes=%d switches=%d segments=%d amacShare=%.2f width=[%d,%d] resizes=%d",
		i.Final, i.Probes, i.Switches, i.Segments, i.Share(ops.AMAC), i.Sched.MinWidth, i.Sched.MaxWidth, i.Sched.WidthChanges)
}

// Controller is the per-core adaptive state: the chosen technique, the
// calibrated cost reference, and the persistent AMAC width controller. It
// carries across Run calls, so heterogeneous operator sequences (a BST
// search followed by a skip list scan) retune at the operator boundary
// through the same drift machinery as an in-machine phase shift.
type Controller struct {
	cfg        Config
	width      *WidthAIMD
	groups     map[ops.Technique]*GroupTuner
	calibrated bool
	chosen     ops.Technique
	refCPL     float64
	info       Info

	// trace is the optional per-core trace sink (SetTrace); nil methods
	// no-op, so the hot paths call it unconditionally.
	trace *obs.CoreTrace
	// now is the controller's timebase: the driving core's cycle count as of
	// the last segment or lease boundary, stamped onto decision-log entries.
	now uint64

	// tailBias, when set, reports whether the serving layer wants tail-safe
	// execution (its SLO brownout is shedding load); tailActive remembers the
	// last reading so each engagement and release is logged once.
	tailBias   func() bool
	tailActive bool
}

// NewController builds a controller with the given configuration. The
// incumbent technique starts as AMAC — the paper's robust default — and is
// replaced by the first probe epoch's winner.
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:    cfg,
		chosen: ops.AMAC,
		width:  NewWidthAIMD(cfg.Window, minWidth, maxWidth),
	}
}

// Info returns a snapshot of the controller's tallies.
func (ctl *Controller) Info() Info {
	info := ctl.info
	info.Final = ctl.chosen
	if info.Lookups != nil {
		cp := make(map[ops.Technique]int, len(info.Lookups))
		for t, n := range info.Lookups {
			cp[t] = n
		}
		info.Lookups = cp
	}
	info.Decisions = ctl.Decisions()
	return info
}

// Technique returns the technique currently in force.
func (ctl *Controller) Technique() ops.Technique { return ctl.chosen }

// SetTailBias attaches the serving layer's tail-safety signal: while f
// reports true (the SLO brownout is shedding load), exploit leases are
// forced onto AMAC — the paper's tail-robust engine — regardless of the
// calibrated cheapest choice. The p99 budget outranks mean cost when the
// budget is already blown.
func (ctl *Controller) SetTailBias(f func() bool) { ctl.tailBias = f }

// tailSafe reports whether the tail-safe bias is engaged, logging each
// engagement (From = calibrated choice, To = AMAC) and release once.
func (ctl *Controller) tailSafe() bool {
	if ctl.tailBias == nil {
		return false
	}
	biased := ctl.tailBias()
	if biased != ctl.tailActive {
		ctl.tailActive = biased
		if biased {
			ctl.record(KindTailSafe, ctl.chosen, ops.AMAC, 0)
		} else {
			ctl.record(KindTailSafe, ops.AMAC, ctl.chosen, 0)
		}
	}
	return biased
}

// Width returns the AMAC width currently in force.
func (ctl *Controller) Width() int { return ctl.width.W }

// amacOptions assembles the AMAC engine options with the width controller
// and the controller's trace sink attached.
func (ctl *Controller) amacOptions() core.Options {
	return core.Options{
		Width:      ctl.width.W,
		Controller: ctl.width,
		MaxWidth:   maxWidth,
		Trace:      ctl.trace,
	}
}

// account tallies one executed segment.
func (ctl *Controller) account(tech ops.Technique, lookups int, sched core.RunStats) {
	ctl.info.Segments++
	if ctl.info.Lookups == nil {
		ctl.info.Lookups = make(map[ops.Technique]int)
	}
	ctl.info.Lookups[tech] += lookups
	if tech == ops.AMAC {
		ctl.info.Sched.Add(sched)
	}
}

// observe feeds one exploit segment's cycles-per-lookup into the drift
// detector: outside the band the calibration is discarded (the next segment
// boundary runs a probe epoch); inside it the reference tracks slowly so
// gradual change does not accumulate into a false phase shift.
func (ctl *Controller) observe(cpl float64) {
	if cpl <= 0 {
		return
	}
	if cpl > ctl.refCPL*driftUp || cpl < ctl.refCPL*driftDown {
		ctl.recalibrate(KindDriftReprobe, cpl)
		return
	}
	ctl.refCPL = 0.7*ctl.refCPL + 0.3*cpl
}

// recalibrate discards the calibration after a detected phase shift: the
// next segment boundary runs a probe epoch, and the width and group-size
// controllers restart from the configured base width (the old tuning
// belonged to the old phase). kind and cpl record why — drift band left or
// queue pressure — in the decision log.
func (ctl *Controller) recalibrate(kind DecisionKind, cpl float64) {
	ctl.calibrated = false
	ctl.width = NewWidthAIMD(ctl.cfg.Window, minWidth, maxWidth)
	ctl.width.Trace = ctl.trace
	ctl.groups = nil
	ctl.record(kind, ctl.chosen, ctl.chosen, cpl)
}

// driftStop wraps the width controller during an exploited AMAC run: every
// probe window it checks the window's busy cycles-per-completion against
// the calibrated reference and, after patience consecutive out-of-band
// windows, returns exec.StopRun — the engine drains and hands control back
// within tens of lookups of the phase boundary, with no mid-run restarts on
// steady phases. In-band windows update the reference slowly, so gradual
// change (cache warm-up) tracks instead of false-triggering.
type driftStop struct {
	width    *WidthAIMD
	ref      float64
	warmup   int
	patience int
	streak   int
	stopped  bool
	// lastCPL is the out-of-band observation that triggered the stop — the
	// evidence the controller records in its decision log.
	lastCPL float64
}

// newDriftStop arms the detector with the controller's calibrated state.
func newDriftStop(ctl *Controller) *driftStop {
	return &driftStop{
		width: ctl.width, ref: ctl.refCPL,
		warmup: 2, patience: 3,
	}
}

// Sample implements exec.WidthController.
func (d *driftStop) Sample(w exec.Window) int {
	if d.warmup > 0 {
		d.warmup--
		return d.width.Sample(w)
	}
	cpl := w.CyclesPerCompletion()
	if cpl > 0 && (cpl > d.ref*driftUp || cpl < d.ref*driftDown) {
		if d.streak++; d.streak >= d.patience {
			d.stopped = true
			d.lastCPL = cpl
			return exec.StopRun
		}
		return d.width.Sample(w)
	}
	d.streak = 0
	if cpl > 0 {
		d.ref = 0.7*d.ref + 0.3*cpl
	}
	return d.width.Sample(w)
}

// calibrate records a probe epoch's outcome.
func (ctl *Controller) calibrate(best ops.Technique, bestCPL float64, first bool) {
	ctl.info.Probes++
	kind := KindCalibrate
	if !first && best != ctl.chosen {
		ctl.info.Switches++
		kind = KindSwitch
	}
	from := ctl.chosen
	ctl.chosen = best
	ctl.refCPL = bestCPL
	ctl.calibrated = true
	ctl.record(kind, from, best, bestCPL)
}

// Run executes every lookup of the machine adaptively on core c. Probe
// epochs measure each candidate technique on short adjacent input segments
// and lock onto the cheapest. Exploitation then depends on the winner:
//
//   - AMAC runs as ONE engine run over everything left, with a driftStop
//     wrapped around the persistent width controller — drift is checked at
//     probe-window granularity (tens of lookups) and the run is stopped,
//     drained and handed back the moment a phase boundary is crossed, so a
//     steady phase pays no restart drains at all;
//   - the other techniques carry no inter-lookup pipeline worth preserving,
//     so they run in short restartable segments whose boundary cost is nil
//     and whose cycles-per-lookup feeds the same drift band.
//
// The lookups execute exactly once, in index order, so the operator output
// is identical to any static run.
func Run[S any](c *memsim.Core, m exec.Machine[S], ctl *Controller) Info {
	cfg := ctl.cfg
	n := m.NumLookups()
	// Non-AMAC exploit segments: short enough that a phase boundary is
	// caught within a few hundred lookups, long enough to amortise the
	// segment bookkeeping.
	segNA := max(cfg.ProbeLookups, cfg.SegmentLookups/4)
	p := c.Profiler()
	pos := 0
	for pos < n {
		if !ctl.calibrated {
			// Probe epochs charge under the "probe" frame, so a flamegraph
			// separates measurement overhead from exploitation.
			p.Push(p.Frame("probe"))
			ctl.record(KindProbeStart, ctl.chosen, ctl.chosen, 0)
			// Warm-up segment: run the incumbent unmeasured first, so the
			// earliest-probed candidate is not penalised with the phase's
			// cold caches and untrained stream state — without it the
			// epoch's measurements systematically favour whichever
			// candidate happens to probe last.
			if pos < n {
				seg := min(cfg.ProbeLookups, n-pos)
				runSegment(c, m, ctl, ctl.chosen, pos, seg)
				pos += seg
			}
			first := ctl.info.Probes == 0
			best, bestCPL := ctl.chosen, 0.0
			for _, tech := range cfg.Techniques {
				if pos >= n {
					break
				}
				seg := min(cfg.ProbeLookups, n-pos)
				cpl := runSegment(c, m, ctl, tech, pos, seg)
				pos += seg
				if bestCPL == 0 || cpl < bestCPL {
					best, bestCPL = tech, cpl
				}
			}
			if bestCPL > 0 {
				ctl.calibrate(best, bestCPL, first)
			}
			p.Pop()
			continue
		}
		if ctl.chosen == ops.AMAC {
			p.Push(p.Frame("exploit"))
			dw := newDriftStop(ctl)
			seg := exec.Shard[S]{M: m, Lo: pos, N: n - pos}
			opts := ctl.amacOptions()
			opts.Controller = dw
			sched := core.Run(c, seg, opts)
			ctl.account(ops.AMAC, sched.Initiated, sched)
			ctl.now = c.Cycle()
			pos += sched.Initiated
			ctl.refCPL = dw.ref
			if dw.stopped {
				ctl.recalibrate(KindDriftReprobe, dw.lastCPL)
			}
			p.Pop()
			continue
		}
		seg := min(segNA, n-pos)
		// Exploited GP/SPP segments relaunch at the tuner-chosen group size
		// (the configured window unless TuneGroupWindow is set): the segment
		// boundary is exactly where a statically-compiled group size CAN
		// change, so the relaunch is free.
		win := ctl.groupWindow(ctl.chosen)
		p.Push(p.Frame("exploit"))
		cpl := runSegmentW(c, m, ctl, ctl.chosen, pos, seg, win)
		p.Pop()
		pos += seg
		ctl.observeGroup(ctl.chosen, cpl)
		ctl.observe(cpl)
	}
	return ctl.Info()
}

// runSegment executes lookups [lo, lo+n) under one technique at the
// configured window and returns the segment's cycles per lookup.
func runSegment[S any](c *memsim.Core, m exec.Machine[S], ctl *Controller, tech ops.Technique, lo, n int) float64 {
	return runSegmentW(c, m, ctl, tech, lo, n, ctl.cfg.Window)
}

// runSegmentW is runSegment with an explicit GP/SPP group size.
func runSegmentW[S any](c *memsim.Core, m exec.Machine[S], ctl *Controller, tech ops.Technique, lo, n, window int) float64 {
	seg := exec.Shard[S]{M: m, Lo: lo, N: n}
	opts := core.Options{Width: window}
	if tech == ops.AMAC {
		opts = ctl.amacOptions()
	}
	start := c.Cycle()
	sched := ops.RunSource[S](c, exec.NewMachineSource[S](seg), tech, opts)
	ctl.account(tech, n, sched)
	ctl.now = c.Cycle()
	return float64(c.Cycle()-start) / float64(n)
}
