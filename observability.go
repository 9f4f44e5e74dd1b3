package amac

import "amac/internal/obs"

// This file exports the observability subsystem: simulated-time event
// tracing (Chrome/Perfetto trace-event JSON) and gauge time series (JSON
// Lines), both keyed on simulated cycles. A nil sink is the disabled state —
// every recording method on a nil receiver is a single-branch no-op that
// allocates nothing — so instrumented code threads the pointers
// unconditionally, and simulated results are byte-identical with the sinks
// on or off. Attach a Trace/Metrics to one core with Sinks.Attach, to a
// service through ServiceOptions, to an engine through Options.Trace, to a
// pipeline or controller through Pipeline.SetTrace or
// AdaptiveController.SetTrace, and to an experiment through
// ExperimentConfig.Sinks.

// Trace is the root event-trace sink: a registry of per-core ring-buffered
// event sinks recording slot lifecycle, GP/SPP group boundaries, controller
// decisions, serving-queue activity and pipeline backpressure. Export with
// WriteChrome (loadable at ui.perfetto.dev). nil disables tracing.
type Trace = obs.Trace

// NewTrace creates a trace sink whose per-core rings hold perCoreEvents
// events (rounded up to a power of two; zero selects the 1<<16 default).
// Full rings overwrite oldest-first — a trace is the tail of the run.
func NewTrace(perCoreEvents int) *Trace { return obs.NewTrace(perCoreEvents) }

// CoreTrace is one core's event ring, handed out by Trace.Core and accepted
// by Options.Trace and the SetTrace methods. All methods no-op on nil.
type CoreTrace = obs.CoreTrace

// TraceEvent is one fixed-size trace record (simulated cycle, kind,
// per-kind detail), readable back through CoreTrace.Events.
type TraceEvent = obs.Event

// TraceEventKind discriminates TraceEvent records.
type TraceEventKind = obs.Kind

// The trace event kinds (see the obs package for each record's field
// interpretation).
const (
	TraceSlotStart    = obs.KindSlotStart
	TraceSlotEnd      = obs.KindSlotEnd
	TraceStage        = obs.KindStage
	TraceRetry        = obs.KindRetry
	TracePrefetch     = obs.KindPrefetch
	TraceGroupStart   = obs.KindGroupStart
	TraceGroupEnd     = obs.KindGroupEnd
	TraceEngineSample = obs.KindEngineSample
	TraceWidthChange  = obs.KindWidthChange
	TraceDecision     = obs.KindDecision
	TraceQueueAdmit   = obs.KindQueueAdmit
	TraceQueueDrop    = obs.KindQueueDrop
	TraceQueueBlock   = obs.KindQueueBlock
	TraceQueueDepth   = obs.KindQueueDepth
	TracePipeDepth    = obs.KindPipeDepth
	TraceBackpressure = obs.KindBackpressure
)

// Metrics is the root metrics registry: named per-core gauges sampled every
// Interval simulated cycles through the core's cycle hook and exported as
// JSON Lines via WriteJSONL. nil disables sampling.
type Metrics = obs.Metrics

// NewMetrics creates a metrics registry sampling every interval simulated
// cycles (zero selects the 4096-cycle default).
func NewMetrics(interval int) *Metrics { return obs.NewMetrics(interval) }

// CoreMetrics is one core's gauge collection, handed out by Metrics.Core.
type CoreMetrics = obs.CoreMetrics

// Sinks is one run's set of sinks: Trace, Metrics and CycleProfile, each
// nil when disabled. Sinks.Attach registers a core in every enabled sink,
// installs its profiler and metrics cycle hook, and adds the width,
// mshr_outstanding and stall_fraction gauges; Detach on the result removes
// the hook and profiler after the run and turns those gauges to 0.
type Sinks = obs.Sinks
