package obs

import (
	"fmt"
	"sync"
)

// defaultCoreEvents is the per-core ring capacity when NewTrace is given
// zero: 1<<16 events × 40 bytes ≈ 2.6 MB per traced core, enough to hold the
// tail of any tiny/small-scale run.
const defaultCoreEvents = 1 << 16

// Trace is the root trace sink: a registry of per-core event rings. The zero
// of the type is not used — a nil *Trace is the disabled state, and its Core
// method hands out nil *CoreTrace sinks whose methods all no-op.
//
// Core registration takes a mutex (serving workers register during serial
// setup; sweep workers may race); event recording itself is core-local and
// lock-free, matching the simulator's one-goroutine-per-core model.
type Trace struct {
	mu      sync.Mutex
	perCore int
	cores   []*CoreTrace
	nextPid int
}

// NewTrace creates a trace sink whose per-core rings hold perCoreEvents
// events (rounded up to a power of two; zero or negative selects the
// default). When a ring fills, the oldest events are overwritten — a trace
// is the tail of the run.
func NewTrace(perCoreEvents int) *Trace {
	if perCoreEvents <= 0 {
		perCoreEvents = defaultCoreEvents
	}
	cap := 1
	for cap < perCoreEvents {
		cap <<= 1
	}
	return &Trace{perCore: cap, nextPid: 1}
}

// Core registers (or re-uses) the named per-core sink. A nil receiver
// returns a nil *CoreTrace, whose recording methods are all no-ops — callers
// thread the result unconditionally.
func (t *Trace) Core(name string) *CoreTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cores {
		if c.name == name {
			return c
		}
	}
	c := &CoreTrace{
		name: name,
		pid:  t.nextPid,
		buf:  make([]Event, t.perCore),
		mask: uint64(t.perCore - 1),
	}
	t.nextPid++
	t.cores = append(t.cores, c)
	return c
}

// Cores snapshots the registered per-core sinks in registration order.
func (t *Trace) Cores() []*CoreTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*CoreTrace(nil), t.cores...)
}

// newDiscardCore returns an unregistered single-slot sink. Sinks.Attach
// hands it out when metrics are enabled without tracing, so the width gauge
// still has a live holder to read; nothing recorded into it is ever
// exported.
func newDiscardCore() *CoreTrace {
	return &CoreTrace{name: "discard", buf: make([]Event, 1), mask: 0}
}

// CoreTrace is one core's event ring. All methods are nil-safe no-ops on a
// nil receiver, cost a single predictable branch on the disabled path, and
// never allocate. The ring is single-writer (the core's goroutine).
type CoreTrace struct {
	name  string
	pid   int
	buf   []Event
	mask  uint64
	head  uint64
	width int
}

// Name returns the sink's registered core name.
func (c *CoreTrace) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Len is the number of events currently held (≤ ring capacity).
func (c *CoreTrace) Len() int {
	if c == nil {
		return 0
	}
	if c.head < uint64(len(c.buf)) {
		return int(c.head)
	}
	return len(c.buf)
}

// Dropped is the number of events overwritten by ring wrap-around.
func (c *CoreTrace) Dropped() uint64 {
	if c == nil {
		return 0
	}
	if n := uint64(len(c.buf)); c.head > n {
		return c.head - n
	}
	return 0
}

// Events snapshots the held events oldest-first.
func (c *CoreTrace) Events() []Event {
	if c == nil {
		return nil
	}
	n := uint64(len(c.buf))
	start := uint64(0)
	if c.head > n {
		start = c.head - n
	}
	out := make([]Event, 0, c.head-start)
	for i := start; i < c.head; i++ {
		out = append(out, c.buf[i&c.mask])
	}
	return out
}

// Width returns the engine width most recently recorded via SetWidth,
// WidthChange or EngineSample; the metrics layer reads it as a gauge.
func (c *CoreTrace) Width() int {
	if c == nil {
		return 0
	}
	return c.width
}

func (c *CoreTrace) push(e Event) {
	c.buf[c.head&c.mask] = e
	c.head++
}

// SlotStart records a lookup's admission into a slot.
func (c *CoreTrace) SlotStart(cycle uint64, slot, req int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindSlotStart, Track: int32(slot), A: int64(req)})
}

// SlotEnd records the slot's in-flight lookup completing.
func (c *CoreTrace) SlotEnd(cycle uint64, slot int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindSlotEnd, Track: int32(slot)})
}

// StageVisit records one stage execution spanning [start, end) simulated
// cycles — the span covers the stage's work plus any MSHR wait it absorbed.
func (c *CoreTrace) StageVisit(start, end uint64, slot, stage int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: start, Dur: end - start, Kind: KindStage, Track: int32(slot), A: int64(stage)})
}

// SlotRetry records a contended stage retry.
func (c *CoreTrace) SlotRetry(cycle uint64, slot, stage int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindRetry, Track: int32(slot), A: int64(stage)})
}

// SlotPrefetch records a prefetch issued on behalf of the slot.
func (c *CoreTrace) SlotPrefetch(cycle uint64, slot int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindPrefetch, Track: int32(slot)})
}

// GroupStart records a GP admission batch or SPP fill beginning.
func (c *CoreTrace) GroupStart(cycle uint64, size int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindGroupStart, A: int64(size)})
}

// GroupEnd records the group's rounds finishing.
func (c *CoreTrace) GroupEnd(cycle uint64, completed int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindGroupEnd, A: int64(completed)})
}

// EngineSample records one AMAC probe-window sample: the active width and
// the MSHR occupancy at the sample point.
func (c *CoreTrace) EngineSample(cycle uint64, width, mshr int) {
	if c == nil {
		return
	}
	c.width = width
	c.push(Event{Cycle: cycle, Kind: KindEngineSample, A: int64(width), B: int64(mshr)})
}

// SetWidth records the in-flight width an engine starts with: 1 for the
// baseline, the group size for GP, the pipeline occupancy for SPP and the
// starting slot window for AMAC. It records no event; a resize is
// WidthChange.
func (c *CoreTrace) SetWidth(width int) {
	if c == nil {
		return
	}
	c.width = width
}

// WidthChange records the engine applying a slot-window resize.
func (c *CoreTrace) WidthChange(cycle uint64, width int) {
	if c == nil {
		return
	}
	c.width = width
	c.push(Event{Cycle: cycle, Kind: KindWidthChange, A: int64(width)})
}

// Decision records an adaptive-controller decision (code is a Dec* value).
func (c *CoreTrace) Decision(cycle uint64, code int, a, b int64) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindDecision, Track: int32(code), A: a, B: b})
}

// QueueAdmit records a request entering the serving queue.
func (c *CoreTrace) QueueAdmit(cycle uint64, req int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindQueueAdmit, A: int64(req)})
}

// QueueDrop records a request dropped at admission.
func (c *CoreTrace) QueueDrop(cycle uint64, req int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindQueueDrop, A: int64(req)})
}

// QueueBlock records arrivals blocking on a full queue.
func (c *CoreTrace) QueueBlock(cycle uint64, depth int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindQueueBlock, A: int64(depth)})
}

// QueueDepth samples the serving-queue depth.
func (c *CoreTrace) QueueDepth(cycle uint64, depth int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindQueueDepth, A: int64(depth)})
}

// PipeDepth samples a pipeline pipe's row count.
func (c *CoreTrace) PipeDepth(cycle uint64, pipe, depth int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindPipeDepth, Track: int32(pipe), A: int64(depth)})
}

// SlotAbandon records a slot closed without completing its request: kind 0
// is a deadline expiry, kind 1 a crash abort.
func (c *CoreTrace) SlotAbandon(cycle uint64, slot, req, kind int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindSlotAbandon, Track: int32(slot), A: int64(req), B: int64(kind)})
}

// Fault records a fault-injector episode applied to this core: kind is the
// fault.Kind code, permille the episode factor scaled by 1000.
func (c *CoreTrace) Fault(cycle, dur uint64, kind int, permille int64) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Dur: dur, Kind: KindFault, A: int64(kind), B: permille})
}

// Breaker records a circuit-breaker state transition (fault.State codes).
func (c *CoreTrace) Breaker(cycle uint64, from, to int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindBreaker, A: int64(from), B: int64(to)})
}

// Hedge records a hedge duplicate dispatched to a sibling shard.
func (c *CoreTrace) Hedge(cycle uint64, req, target int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindHedge, A: int64(req), B: int64(target)})
}

// Reroute records an arrival redirected to a sibling by an open breaker.
func (c *CoreTrace) Reroute(cycle uint64, req, target int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindReroute, A: int64(req), B: int64(target)})
}

// Requeue records a timed-out request re-enqueued by the retry policy.
func (c *CoreTrace) Requeue(cycle uint64, req, attempt int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindRequeue, A: int64(req), B: int64(attempt)})
}

// Brownout records an SLO brownout shed-level change.
func (c *CoreTrace) Brownout(cycle uint64, level int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindBrownout, A: int64(level)})
}

// Backpressure records a stage lease ending on a full output pipe.
func (c *CoreTrace) Backpressure(cycle uint64, pipe int) {
	if c == nil {
		return
	}
	c.push(Event{Cycle: cycle, Kind: KindBackpressure, Track: int32(pipe)})
}

// String summarises the sink for diagnostics.
func (c *CoreTrace) String() string {
	if c == nil {
		return "obs: disabled"
	}
	return fmt.Sprintf("obs: %s: %d events (%d dropped)", c.name, c.Len(), c.Dropped())
}
