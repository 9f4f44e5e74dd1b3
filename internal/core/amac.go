// Package core implements Asynchronous Memory Access Chaining (AMAC), the
// contribution of Kocberber, Falsafi and Grot (VLDB 2015).
//
// AMAC keeps the full state of every in-flight lookup in its own slot of a
// software-managed circular buffer (Figure 4 and Listing 1 of the paper).
// The scheduler walks the buffer with a rolling counter; at each slot it
// loads the lookup's state, jumps to the code stage recorded there, issues
// the prefetch for that lookup's next memory access, and stores the state
// back. Because every lookup is independent of every other lookup's
// position in its own pointer chain:
//
//   - a lookup that finishes early is replaced by a fresh lookup in the same
//     slot immediately (the paper's merged terminal/initial stage
//     optimisation), so the number of in-flight memory accesses stays at the
//     buffer size at all times,
//   - a lookup that needs more accesses than the common case simply keeps
//     its slot for more rounds — no bail-out path exists or is needed,
//   - a lookup that cannot acquire a latch is skipped and retried the next
//     time the rolling counter reaches its slot, so the thread spins at the
//     granularity of the whole buffer rather than on a single latch.
//
// The engine schedules the same stage machines (package exec) as the
// Baseline, Group Prefetching and Software-Pipelined Prefetching engines, so
// comparisons across techniques exercise identical operator code.
package core

import (
	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/obs"
)

// CostStateSwap models AMAC's per-visit overhead: loading a state entry from
// the circular buffer into registers, dispatching on its stage field, and
// storing the updated state back (the paper's Table 3 measures AMAC at about
// 1.5x the baseline instruction count; GP and SPP pay 2.5x and 1.9x).
const CostStateSwap = 6

// DefaultWidth is the default number of in-flight lookups. The paper finds
// that performance saturates once the buffer covers the hardware's MLP limit
// (10 L1-D MSHRs on the Xeon) and recommends values near it.
const DefaultWidth = 10

// CostProbe models the adaptive controller's per-window overhead: reading a
// handful of PMU counters, computing the window deltas and running the
// resize policy. Charged only when a controller is attached, so static runs
// pay nothing.
const CostProbe = 8

// DefaultProbeFactor sets the default probe interval as a multiple of the
// slot-window width: one sample every width*DefaultProbeFactor completions
// keeps controller overhead well under a tenth of a percent of the run.
const DefaultProbeFactor = 4

// Options tunes the AMAC scheduler.
type Options struct {
	// Width is the number of circular-buffer entries (in-flight lookups).
	// Zero selects DefaultWidth.
	Width int
	// DisableImmediateRefill turns off the merged terminal/initial stage
	// optimisation of Section 3.1: when a lookup completes, its slot stays
	// empty until the rolling counter wraps around to it again. Used by the
	// ablation experiments; the paper's AMAC always refills immediately.
	DisableImmediateRefill bool
	// Controller, if non-nil, is sampled every ProbeInterval completions
	// with the window's execution stats and may resize the slot window
	// mid-run (Section 6's dynamic-adjustment argument made concrete).
	// Growth activates fresh slots immediately; shrinkage stops refilling
	// the surplus slots and retires each as its in-flight lookup completes,
	// so no lookup is ever abandoned or restarted. Nil keeps the engine
	// bit-identical to the static scheduler.
	Controller exec.WidthController
	// MaxWidth caps controller-driven growth (and sizes the slot buffer).
	// Zero selects 4x the starting width, at least DefaultWidth.
	MaxWidth int
	// ProbeInterval is the number of completions between controller
	// samples. Zero selects Width*DefaultProbeFactor.
	ProbeInterval int
	// Trace, if non-nil, records the run's slot lifecycle (admit, stage
	// visits, retries, prefetches, complete), probe-window samples and width
	// changes into the per-core event ring. Purely observational: simulated
	// results are bit-identical with or without it, and the nil (disabled)
	// path costs one predictable branch per event site.
	Trace *obs.CoreTrace
	// Deadline, if positive, bounds each request's admission→completion time
	// in streaming runs: a busy slot whose request has exceeded its deadline
	// is closed on its next visit — the slot drains exactly like a shrunk
	// window retires, the in-flight memory ops are left to settle in the
	// MSHRs, and the request is reported through exec.FailSink instead of
	// Complete. Batch runs ignore it (a batch has no admission times).
	Deadline uint64
}

// width applies the width default: an explicit width wins, then
// DefaultWidth.
func (o Options) width() int {
	if o.Width > 0 {
		return o.Width
	}
	return DefaultWidth
}

// maxWidth resolves the slot-buffer capacity for a controller-driven run.
func (o Options) maxWidth(width int) int {
	m := o.MaxWidth
	if m <= 0 {
		m = 4 * width
		if m < DefaultWidth {
			m = DefaultWidth
		}
	}
	if m < width {
		m = width
	}
	return m
}

// MinProbeInterval floors the default probe spacing: windows narrower than
// this carry too few completions for a stable cycles-per-completion signal
// (one cold outlier in an 8-completion window doubles its cost), so even a
// narrow slot window samples at least this many completions per window.
const MinProbeInterval = 32

// probeInterval resolves the completions-per-sample probe spacing.
func (o Options) probeInterval(width int) int {
	if o.ProbeInterval > 0 {
		return o.ProbeInterval
	}
	n := width * DefaultProbeFactor
	if n < MinProbeInterval {
		n = MinProbeInterval
	}
	return n
}

// Run executes every lookup of the machine using AMAC with the given
// options and returns scheduling statistics: the streaming engine over the
// batch (see RunStream), which clamps the width to the number of lookups.
// Options.Deadline is ignored.
func Run[S any](c *memsim.Core, m exec.Machine[S], opts Options) RunStats {
	opts.Deadline = 0
	return RunStream[S](c, exec.NewMachineSource(m), opts)
}

// clampWidth bounds a controller's requested width to [1, cap].
func clampWidth(target, cap int) int {
	if target < 1 {
		return 1
	}
	if target > cap {
		return cap
	}
	return target
}

// widthProbe tracks the between-samples counter state of a controller-driven
// run: the previous Stats snapshot and the completion count at the last
// sample.
type widthProbe struct {
	interval      int
	lastCompleted int
	prev          memsim.Stats
}

// newWidthProbe starts the window clock at the current counters.
func newWidthProbe(c *memsim.Core, interval int) widthProbe {
	if interval < 1 {
		interval = 1
	}
	return widthProbe{interval: interval, prev: c.Stats()}
}

// sample charges the controller overhead, builds the window delta since the
// previous sample and restarts the window.
func (p *widthProbe) sample(c *memsim.Core, admit, completed int) exec.Window {
	c.Instr(CostProbe)
	cur := c.Stats()
	w := exec.Window{
		Width:              admit,
		Completed:          completed - p.lastCompleted,
		Outstanding:        c.MSHROutstanding(),
		AtCycle:            cur.Cycles,
		Cycles:             cur.Cycles - p.prev.Cycles,
		Instructions:       cur.Instructions - p.prev.Instructions,
		StallCycles:        cur.StallCycles - p.prev.StallCycles,
		IdleCycles:         cur.IdleCycles - p.prev.IdleCycles,
		Loads:              cur.Loads - p.prev.Loads,
		MSHRHits:           cur.MSHRHits - p.prev.MSHRHits,
		MSHRHitWaitCycles:  cur.MSHRHitWaitCycles - p.prev.MSHRHitWaitCycles,
		MSHRFullStalls:     cur.MSHRFullStalls - p.prev.MSHRFullStalls,
		MSHRFullWaitCycles: cur.MSHRFullWaitCycles - p.prev.MSHRFullWaitCycles,
		MemAccesses:        cur.MemAccesses - p.prev.MemAccesses,
		PrefetchIssued:     cur.PrefetchIssued - p.prev.PrefetchIssued,
		PrefetchDropped:    cur.PrefetchDropped - p.prev.PrefetchDropped,
	}
	p.prev = cur
	p.lastCompleted = completed
	return w
}

// RunStats summarises one AMAC execution for tests and reports.
type RunStats struct {
	// Width is the circular-buffer size the run started with.
	Width int
	// MinWidth and MaxWidth are the extremes the slot window reached; for a
	// static run both equal Width (zero for an empty run).
	MinWidth int
	MaxWidth int
	// WidthChanges counts controller-driven window resizes.
	WidthChanges int
	// Initiated counts lookups started (equals the machine's NumLookups
	// when the run completes).
	Initiated int
	// Completed counts lookups finished.
	Completed int
	// StageVisits counts executions of stages >= 1.
	StageVisits uint64
	// Retries counts visits that found a latch held and moved on.
	Retries uint64
	// TimedOut counts streaming requests closed past their deadline.
	TimedOut int
	// Aborted counts in-flight requests discarded by an engine Abort (a
	// crashed shard). Initiated = Completed + TimedOut + Aborted when a
	// streaming engine finishes or is aborted — the slot-leak invariant.
	Aborted int
}

// Add accumulates another run's scheduling counters, keeping the larger
// Width, so that the per-worker AMAC runs of a sharded parallel phase can be
// folded into one report.
func (s *RunStats) Add(other RunStats) {
	if other.Width > s.Width {
		s.Width = other.Width
	}
	if other.MinWidth > 0 && (s.MinWidth == 0 || other.MinWidth < s.MinWidth) {
		s.MinWidth = other.MinWidth
	}
	if other.MaxWidth > s.MaxWidth {
		s.MaxWidth = other.MaxWidth
	}
	s.WidthChanges += other.WidthChanges
	s.Initiated += other.Initiated
	s.Completed += other.Completed
	s.StageVisits += other.StageVisits
	s.Retries += other.Retries
	s.TimedOut += other.TimedOut
	s.Aborted += other.Aborted
}

// MergeRunStats folds per-worker AMAC scheduling stats into one.
func MergeRunStats(perWorker []RunStats) RunStats {
	var merged RunStats
	for _, w := range perWorker {
		merged.Add(w)
	}
	return merged
}
