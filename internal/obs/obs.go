// Package obs is the observability subsystem: a zero-cost-when-disabled
// tracing and metrics layer keyed on simulated cycles as the timebase.
//
// Two sinks share that timebase:
//
//   - Event tracing (Trace/CoreTrace): per-core ring-buffered event sinks
//     recording AMAC slot lifecycle (admit → stage visits with their MSHR
//     wait → complete), GP/SPP group boundaries, controller decisions
//     (probe epochs, technique switches, width changes with reason),
//     serving-queue admit/drop/block, and pipeline pipe depth and
//     backpressure. WriteChrome exports the rings as Chrome trace-event
//     JSON, loadable in Perfetto or chrome://tracing, with one process per
//     core and one thread track per slot plus controller/queue/engine
//     tracks.
//
//   - Metrics time series (Metrics/CoreMetrics): a registry of named gauges
//     sampled every N simulated cycles through memsim's cycle hook
//     (in-flight width, MSHR occupancy, queue depth, sliding-window p99,
//     stall fraction), exported as JSON Lines.
//
// Sinks bundles both with the cycle-attribution profiler (package prof) as
// the one value a run passes down to its cores, and Sinks.Attach wires all
// three onto a memsim core: registration, profiler, cycle hook and the
// gauges every core shares.
//
// Everything is nil-safe: a nil *Trace hands out nil *CoreTrace values, and
// every CoreTrace/CoreMetrics/LatencyWindow method on a nil receiver is a
// no-op. Instrumented code therefore threads the pointers unconditionally
// and never branches on an "enabled" flag; the disabled path costs one
// predictable nil check per event site and allocates nothing (guarded by
// TestDisabledObservabilityZeroAlloc and the traced-vs-untraced benchmark
// pairs).
//
// The subsystem is purely observational — it never advances the simulated
// clock or touches simulator state — so simulated results are byte-identical
// with tracing on or off. The differential tests assert this end to end.
package obs

// Kind discriminates trace events. The Track field of an Event names a slot
// for slot-scoped kinds and a pipe for pipe-scoped kinds; other kinds ignore
// it (except KindDecision, which stores its decision code there).
type Kind uint8

const (
	// KindSlotStart marks a lookup admitted into a slot (A = request index).
	KindSlotStart Kind = iota
	// KindSlotEnd marks the slot's in-flight lookup completing.
	KindSlotEnd
	// KindStage is one stage visit: Dur simulated cycles of work plus MSHR
	// wait (A = stage index).
	KindStage
	// KindRetry is a contended stage retry (A = stage index).
	KindRetry
	// KindPrefetch marks a prefetch issued on behalf of the slot.
	KindPrefetch
	// KindGroupStart marks a GP admission batch or SPP fill beginning
	// (A = group size).
	KindGroupStart
	// KindGroupEnd marks the group's rounds completing (A = lookups finished).
	KindGroupEnd
	// KindEngineSample is one AMAC probe-window sample: A = active width,
	// B = MSHR occupancy at the sample point.
	KindEngineSample
	// KindWidthChange marks the engine applying a slot-window resize
	// (A = new width).
	KindWidthChange
	// KindDecision is an adaptive-controller decision: Track = decision code
	// (Dec*), A/B = code-specific detail.
	KindDecision
	// KindQueueAdmit marks a request entering the serving queue
	// (A = request index).
	KindQueueAdmit
	// KindQueueDrop marks a request dropped at admission (A = request index).
	KindQueueDrop
	// KindQueueBlock marks arrivals blocking on a full queue (A = depth).
	KindQueueBlock
	// KindQueueDepth samples the serving-queue depth (A = depth).
	KindQueueDepth
	// KindPipeDepth samples a pipeline pipe's depth (Track = pipe, A = depth).
	KindPipeDepth
	// KindBackpressure marks a stage lease ending because its output pipe is
	// full (Track = pipe index).
	KindBackpressure
	// KindSlotAbandon marks a slot closed without completing its request
	// (A = request index, B = 0 for a deadline expiry, 1 for a crash abort).
	KindSlotAbandon
	// KindFault is a fault-injector episode applied to this core: Dur is the
	// episode length in cycles, A the fault.Kind code, B the episode factor
	// in permille (slowdown multiplier or spike rate multiplier).
	KindFault
	// KindBreaker is a circuit-breaker state transition (A = from, B = to;
	// codes are fault.State values).
	KindBreaker
	// KindHedge marks a hedge duplicate dispatched for a slow request
	// (A = request index, B = target shard).
	KindHedge
	// KindReroute marks an arrival redirected off its home shard by an open
	// breaker (A = request index, B = target shard).
	KindReroute
	// KindRequeue marks a timed-out request re-enqueued by the retry policy
	// (A = request index, B = attempt number).
	KindRequeue
	// KindBrownout is an SLO brownout shed-level change (A = new level).
	KindBrownout

	// kindCount is the number of kinds; new kinds go above it.
	kindCount
)

// Decision codes carried in KindDecision events (Event.Track). They mirror
// the adapt package's Decision log; the trace event is the cheap on-timeline
// marker, the log is the rich record.
const (
	// DecProbeStart: a calibration epoch begins (A = probe segment lookups).
	DecProbeStart = iota
	// DecCalibrate: calibration kept the incumbent technique (A = technique).
	DecCalibrate
	// DecSwitch: calibration switched technique (A = from, B = to).
	DecSwitch
	// DecDriftReprobe: exploit-phase cost drifted out of band (A = technique).
	DecDriftReprobe
	// DecQueueReprobe: serving backlog forced a re-probe (A = queue depth).
	DecQueueReprobe
	// DecStopRun: a drift-stop ended an exploited AMAC run early.
	DecStopRun
	// DecWidthGrow: width AIMD widened the slot window (A = new width).
	DecWidthGrow
	// DecWidthShrink: width AIMD backed off on MSHR-full waits (A = new width).
	DecWidthShrink
	// DecWidthGlide: width AIMD glided toward the floor on a compute-bound
	// phase (A = new width).
	DecWidthGlide
	// DecTailSafe: the SLO brownout engaged (or released) the tail-safe bias,
	// forcing exploit leases onto AMAC (A = technique in force).
	DecTailSafe
)

// decisionNames renders decision codes in exported traces.
var decisionNames = [...]string{
	DecProbeStart:   "probe start",
	DecCalibrate:    "calibrate",
	DecSwitch:       "switch",
	DecDriftReprobe: "drift reprobe",
	DecQueueReprobe: "queue reprobe",
	DecStopRun:      "drift stop",
	DecWidthGrow:    "width grow",
	DecWidthShrink:  "width shrink",
	DecWidthGlide:   "width glide",
	DecTailSafe:     "tail-safe",
}

// DecisionName returns the human label for a Dec* code.
func DecisionName(code int) string {
	if code < 0 || code >= len(decisionNames) {
		return "decision"
	}
	return decisionNames[code]
}

// Event is one fixed-size trace record. Cycle is the simulated cycle the
// event happened at (spans additionally carry Dur); the remaining fields are
// interpreted per Kind.
type Event struct {
	Cycle uint64
	Dur   uint64
	A, B  int64
	Track int32
	Kind  Kind
}
