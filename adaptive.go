package amac

import "amac/internal/adapt"

// This file exports the adaptive execution subsystem: online technique
// selection (probe/exploit with drift-triggered re-calibration over
// Baseline, GP, SPP and AMAC) and dynamic AMAC slot-window control. The paper
// argues AMAC's per-slot independence makes the number of in-flight accesses
// a runtime knob; package adapt is that knob turned by a feedback loop. A
// controller drives a pipeline stage (Pipeline.RunAdaptive) or every shard
// of a service (ServiceOptions.Adaptive). See EXPERIMENTS.md ("adaptN") for
// the measured behaviour.

// AdaptiveConfig tunes an adaptive controller: candidate techniques,
// starting window, segment and probe lengths and streaming lease quotas.
// The zero value selects the documented defaults.
type AdaptiveConfig = adapt.Config

// AdaptiveController carries the adaptive state — chosen technique,
// calibrated cost reference, persistent width controller — across segments,
// runs and operators. One per core or shard; not safe for concurrent use.
type AdaptiveController = adapt.Controller

// NewAdaptiveController builds a controller with the given configuration.
func NewAdaptiveController(cfg AdaptiveConfig) *AdaptiveController {
	return adapt.NewController(cfg)
}
