package amac

import (
	"amac/internal/adapt"
	"amac/internal/exec"
)

// This file exports the adaptive execution subsystem: online technique
// selection (probe/exploit with drift-triggered re-calibration over
// Baseline, GP, SPP and AMAC) and dynamic AMAC slot-window control (AIMD
// hill-climb over per-window execution samples). The paper argues AMAC's
// per-slot independence makes the number of in-flight accesses a runtime
// knob; package adapt is that knob turned by a feedback loop. See
// EXPERIMENTS.md ("adaptN") for the measured behaviour.

// ProbeWindow is one probe window of an engine run: PMU counter deltas plus
// the scheduler's view (active width, completions) and the MSHR occupancy.
// A width controller reads the phase character off it.
type ProbeWindow = exec.Window

// WidthController is consulted by the AMAC engines once per probe window
// when attached via Options.Controller and may
// resize the slot window mid-run; the engine applies changes safely, never
// abandoning an in-flight lookup. GP and SPP cannot act on it — their group
// size and pipeline depth are baked into their control flow — which is the
// paper's flexibility argument as a type signature.
type WidthController = exec.WidthController

// WidthAIMD is the built-in width controller: additive growth while memory
// stalls dominate, multiplicative back-off when MSHR-full waits appear,
// a glide to the floor on compute-bound phases, with hysteresis.
type WidthAIMD = adapt.WidthAIMD

// NewWidthAIMD builds a width controller starting at start, bounded to
// [min, max].
func NewWidthAIMD(start, min, max int) *WidthAIMD { return adapt.NewWidthAIMD(start, min, max) }

// AdaptiveConfig tunes an adaptive controller: candidate techniques,
// starting window, segment and probe lengths and streaming lease quotas.
// The zero value selects the documented defaults.
type AdaptiveConfig = adapt.Config

// AdaptiveController carries the adaptive state — chosen technique,
// calibrated cost reference, persistent width controller — across segments,
// runs and operators. One per core or shard; not safe for concurrent use.
type AdaptiveController = adapt.Controller

// AdaptiveInfo reports what a controller did: probe epochs, technique
// switches, per-technique lookup tallies, width extremes, and the full
// decision log (Decisions).
type AdaptiveInfo = adapt.Info

// AdaptiveDecision is one entry of a controller's decision log: what the
// controller decided (probe start, calibration, technique switch, drift or
// queue-pressure re-probe), the simulated cycle it decided at, the
// before/after techniques, the width in force and the cycles-per-lookup
// evidence it acted on. Serving callers read the log off
// ServiceResult.PerWorker[w].Adapt.Decisions (or AdaptiveController.Decisions)
// to answer "why did this shard switch technique?" without a trace viewer.
type AdaptiveDecision = adapt.Decision

// AdaptiveDecisionKind classifies a decision-log entry.
type AdaptiveDecisionKind = adapt.DecisionKind

// The decision kinds.
const (
	// DecisionProbeStart marks the beginning of a probe epoch.
	DecisionProbeStart = adapt.KindProbeStart
	// DecisionCalibrate records a probe epoch that kept the incumbent (or the
	// first calibration).
	DecisionCalibrate = adapt.KindCalibrate
	// DecisionSwitch records a probe epoch whose winner differs from the
	// incumbent.
	DecisionSwitch = adapt.KindSwitch
	// DecisionDriftReprobe records a calibration discarded on cost drift.
	DecisionDriftReprobe = adapt.KindDriftReprobe
	// DecisionQueueReprobe records a calibration discarded on a serving
	// queue-depth jump.
	DecisionQueueReprobe = adapt.KindQueueReprobe
)

// NewAdaptiveController builds a controller with the given configuration.
func NewAdaptiveController(cfg AdaptiveConfig) *AdaptiveController {
	return adapt.NewController(cfg)
}

// RunAdaptive executes every lookup of the machine adaptively: input
// segments run under the controller's current technique, probe epochs
// re-measure the candidates whenever the observed cycles-per-lookup drifts
// out of the calibrated band, and AMAC segments run under the persistent
// width controller. Lookups execute exactly once, in index order, so the
// operator output is identical to any static run.
func RunAdaptive[S any](c *Core, m Machine[S], ctl *AdaptiveController) AdaptiveInfo {
	return adapt.Run(c, m, ctl)
}

// RunStreamAdaptive serves an open-loop request source adaptively: leases
// of requests run under the controller's current technique and the
// controller retunes on cost drift or queue-pressure jumps. queueDepth may
// be nil. Returns the aggregated AMAC scheduler stats.
func RunStreamAdaptive[S any](c *Core, src Source[S], ctl *AdaptiveController, queueDepth func() int) RunStats {
	return adapt.RunStream(c, src, ctl, queueDepth)
}

// Concat views a sequence of machines over one state type as a single
// machine whose behaviour shifts at the phase boundaries — the workload
// shape the adaptive subsystem exists for.
type Concat[S any] = exec.Concat[S]

// ConcatState wraps a machine state with the phase that initiated it.
type ConcatState[S any] = exec.ConcatState[S]

// NewConcat builds the composite machine over the given phases.
func NewConcat[S any](machines ...Machine[S]) *Concat[S] {
	return exec.NewConcat(machines...)
}

// assert the built-in controller satisfies the engine hook.
var _ WidthController = (*WidthAIMD)(nil)
