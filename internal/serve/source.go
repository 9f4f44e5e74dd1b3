package serve

import (
	"sync"

	"amac/internal/exec"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/obs"
)

// Policy says what a bounded admission queue does with a request that
// arrives while the queue is full.
type Policy int

const (
	// Block never rejects: a request that finds the queue full waits outside
	// and is admitted when space frees. Its latency still counts from the
	// original arrival cycle, so blocking shows up as queue delay — under
	// sustained overload, latencies grow with the length of the run, which
	// is exactly how an unbounded open-loop queue behaves.
	Block Policy = iota
	// Drop rejects a request that arrives while the queue holds Capacity
	// requests; rejections are counted in the recorder's Dropped.
	Drop
)

// String renders the policy name.
func (p Policy) String() string {
	if p == Drop {
		return "drop"
	}
	return "block"
}

// Queue-side bookkeeping costs, in abstract instructions, charged to the
// serving core: checking the arrival clock and linking a request into the
// queue, and unlinking the head on a pull. They are small by design — the
// queue is a few pointer writes next to the operator work.
const (
	costAdmit = 1
	costPop   = 2
)

// ringPool recycles admission-ring buffers across runs, so a load sweep that
// builds one QueueSource per (technique, load, worker) run reuses a handful
// of rings instead of allocating per run.
var ringPool = sync.Pool{New: func() any { b := make([]int32, 0, 64); return &b }}

// getRing returns a power-of-two ring with room for at least n entries.
func getRing(n int) *[]int32 {
	size := 64
	for size < n {
		size <<= 1
	}
	p := ringPool.Get().(*[]int32)
	if cap(*p) < size {
		*p = make([]int32, size)
	} else {
		*p = (*p)[:cap(*p)]
	}
	return p
}

// QueueSource feeds a streaming engine from a bounded admission queue filled
// by an open-loop arrival schedule. Request i of the schedule is lookup i of
// the wrapped machine; arrivals are processed lazily (and exactly) at each
// Pull, which is correct because the queue only ever drains at pulls.
//
// The queue is a power-of-two ring buffer: admit writes at the tail, a pull
// reads at the head, both O(1) with no copying or reslicing in steady state
// (an unbounded queue doubles the ring only when its depth outgrows it).
//
// A QueueSource is single-run state: build a fresh one per (engine, core)
// execution. Close releases its ring for reuse by later sources.
type QueueSource[S any] struct {
	m        exec.Machine[S]
	arrivals []uint64
	policy   Policy
	capacity int
	rec      *Recorder

	next int // next schedule index not yet admitted or dropped

	// tr receives queue lifecycle events (admit, drop, block, depth); lat
	// records completion latencies for the sliding-window p99 gauge. Both
	// are nil-safe no-ops and purely observational.
	tr  *obs.CoreTrace
	lat *obs.LatencyWindow

	// Admitted request indices live in ring[head&mask .. tail&mask); head
	// and tail increase monotonically, so tail-head is the queue depth.
	ringP      *[]int32
	ring       []int32
	mask       int
	head, tail int

	// Fault-tolerant serving extensions. All are zero/nil in plain runs, in
	// which case every code path below reduces exactly to the original
	// queue: same instruction charges, same events, same accounting.

	// shard is this queue's worker index under a fault router.
	shard int
	// sched maps a schedule position to the machine lookup index it serves;
	// nil means the identity (position i is lookup i). A router requires an
	// explicit map placing every worker's schedule in one shared index
	// space, so a request keeps its identity when served by a sibling.
	sched []int32
	// deadline is the per-request budget in cycles from arrival; entries
	// that expire while still queued are resolved at pop time. Zero
	// disables the check.
	deadline uint64
	// brown, when set, sheds arrivals whose class (lookup index mod
	// classes) is currently browned out.
	brown   *fault.Brownout
	classes int
	// sloN counts admissions toward the queue-local brownout observation
	// (used only when no router owns the brownout).
	sloN int
	// router, when set, owns cross-shard recovery: it is consulted at
	// admission (breaker reroutes), at entry expiry and on completion.
	router *router
	// horizon is the wait floor handed to the engine when the queue is
	// empty but the router may still inject work; the coordinator advances
	// it every round. closed means the router declared the run resolved.
	horizon uint64
	closed  bool
	// extras holds router-injected recovery dispatches (hedge duplicates,
	// breaker reroutes, retry re-enqueues), served ahead of the base ring
	// in injection order once their ready cycle passes.
	extras    []extra
	extraHead int
}

// extra is one router-injected recovery dispatch.
type extra struct {
	idx     int32  // machine lookup index (the request's global identity)
	attempt uint8  // retry attempt; zero for hedges and reroutes
	arrival uint64 // original arrival cycle — the latency base
	ready   uint64 // earliest cycle the entry may be pulled
}

// NewQueueSource builds a source serving the machine's lookups at the given
// arrival cycles (non-decreasing; at most NumLookups entries are used).
// capacity bounds the admitted queue; zero or negative means unbounded,
// which forces the Block policy. The recorder may be shared with the caller
// for reading afterwards; it must not be shared with another live source.
func NewQueueSource[S any](m exec.Machine[S], arrivals []uint64, capacity int, policy Policy, rec *Recorder) *QueueSource[S] {
	n := m.NumLookups()
	if len(arrivals) > n {
		arrivals = arrivals[:n]
	}
	if len(arrivals) > 1<<31-1 {
		panic("serve: arrival schedule exceeds 2^31-1 requests")
	}
	if capacity <= 0 {
		capacity = 0
		policy = Block
	}
	if rec == nil {
		rec = &Recorder{}
	}
	q := &QueueSource[S]{m: m, arrivals: arrivals, policy: policy, capacity: capacity, rec: rec}
	// A bounded queue never holds more than capacity entries, so its ring is
	// sized once and never grows.
	q.ringP = getRing(capacity)
	q.ring = *q.ringP
	q.mask = len(q.ring) - 1
	return q
}

// Close releases the source's ring buffer back to the shared pool. The
// source must not be used afterwards.
func (q *QueueSource[S]) Close() {
	if q.ringP == nil {
		return
	}
	ringPool.Put(q.ringP)
	q.ringP = nil
	q.ring = nil
}

// Recorder returns the recorder accumulating this source's statistics.
func (q *QueueSource[S]) Recorder() *Recorder { return q.rec }

// SetTrace attaches a per-core trace sink: the queue emits admit, drop and
// block instants and a depth counter on its track. Purely observational.
func (q *QueueSource[S]) SetTrace(tr *obs.CoreTrace) { q.tr = tr }

// SetLatencyWindow attaches a sliding window that records every completion's
// admission-to-done latency — the backing store of a live p99 gauge. Purely
// observational.
func (q *QueueSource[S]) SetLatencyWindow(lw *obs.LatencyWindow) { q.lat = lw }

// SetSchedule maps schedule positions to machine lookup indices (nil keeps
// the identity). Routed services use it to place every worker's schedule in
// one shared index space over replicated machines.
func (q *QueueSource[S]) SetSchedule(sched []int32) { q.sched = sched }

// SetDeadline sets the per-request cycle budget from arrival; zero disables.
func (q *QueueSource[S]) SetDeadline(d uint64) { q.deadline = d }

// SetBrownout attaches an SLO brownout controller: arrivals whose class
// (lookup index mod the controller's class count) is shed are rejected at
// admission. When no router owns the controller, the queue feeds it the
// sliding p99 itself, once every 64 offered requests (SetLatencyWindow must
// be called too).
func (q *QueueSource[S]) SetBrownout(b *fault.Brownout) {
	q.brown = b
	if b != nil {
		q.classes = b.Classes()
	}
}

// bind attaches the fault router that owns this queue's shard.
func (q *QueueSource[S]) bind(r *router, shard int) { q.router = r; q.shard = shard }

// setHorizon advances the round-boundary wait floor the engine sees while
// the router may still inject work into an otherwise empty queue.
func (q *QueueSource[S]) setHorizon(h uint64) { q.horizon = h }

// closeRouted marks the routed run resolved: once the backlog drains, Pull
// reports Exhausted instead of waiting on the horizon.
func (q *QueueSource[S]) closeRouted() { q.closed = true }

// inject appends a recovery dispatch; it is served ahead of the base ring
// once its ready cycle passes.
func (q *QueueSource[S]) inject(e extra) { q.extras = append(q.extras, e) }

// scheduleDone reports whether every base arrival has been consumed.
func (q *QueueSource[S]) scheduleDone() bool { return q.next >= len(q.arrivals) }

// idxAt resolves a schedule position to its machine lookup index.
func (q *QueueSource[S]) idxAt(pos int32) int32 {
	if q.sched == nil {
		return pos
	}
	return q.sched[pos]
}

// maybeObserveSLO feeds the queue-owned brownout controller (router-less
// runs only) the sliding p99 once every 64 offered requests.
func (q *QueueSource[S]) maybeObserveSLO(now uint64) {
	if q.brown == nil || q.router != nil {
		return
	}
	q.sloN++
	if q.sloN < 64 {
		return
	}
	q.sloN = 0
	if lvl, changed := q.brown.Observe(q.lat.Quantile(0.99)); changed {
		q.tr.Brownout(now, lvl)
	}
}

// timeoutEntry resolves a queued entry whose deadline expired before an
// engine could pull it.
func (q *QueueSource[S]) timeoutEntry(idx int32, arrival, now uint64) {
	q.tr.QueueDrop(now, int(idx))
	if q.router != nil {
		q.router.onCopyDead(q.shard, idx, arrival, now, exec.FailDeadline)
		return
	}
	q.rec.TimedOut++
}

// Fail implements exec.FailSink: the engine reports a slot it closed without
// completing (deadline expiry in flight, or a crash abort).
func (q *QueueSource[S]) Fail(req exec.Request, at uint64, kind exec.FailKind) {
	if q.router != nil {
		q.router.onCopyDead(q.shard, int32(req.Index), req.Admit, at, kind)
		return
	}
	if kind == exec.FailCrash {
		q.rec.Failed++
	} else {
		q.rec.TimedOut++
	}
}

// failQueued drops every queued entry (base ring and pending extras) on a
// shard crash; the router decides which requests retry and which are lost.
func (q *QueueSource[S]) failQueued(now uint64) {
	for q.head < q.tail {
		pos := q.ring[q.head&q.mask]
		q.head++
		if q.router != nil {
			q.router.onCopyDead(q.shard, q.idxAt(pos), q.arrivals[pos], now, exec.FailCrash)
		} else {
			q.rec.Failed++
		}
	}
	for q.extraHead < len(q.extras) {
		e := q.extras[q.extraHead]
		q.extraHead++
		if q.router != nil {
			q.router.onCopyDead(q.shard, e.idx, e.arrival, now, exec.FailCrash)
		} else {
			q.rec.Failed++
		}
	}
}

// depth returns the number of admitted, not-yet-pulled requests.
func (q *QueueSource[S]) depth() int { return q.tail - q.head }

// Depth exposes the admission-queue backlog: the adaptive serving
// controller reads it between leases as its queue-pressure retune signal.
func (q *QueueSource[S]) Depth() int { return q.depth() }

// grow doubles the ring (unbounded queues only), relinking the live entries
// in FIFO order.
func (q *QueueSource[S]) grow() {
	old, oldMask := q.ring, q.mask
	p := getRing(2 * len(old))
	q.ringP, q.ring = p, *p
	q.mask = len(q.ring) - 1
	for i := q.head; i < q.tail; i++ {
		q.ring[i&q.mask] = old[i&oldMask]
	}
	ringPool.Put(&old)
}

// admit processes every arrival due at or before now, in arrival order:
// admitted while there is room, dropped (under Drop) once the queue is
// full. Lazy processing is exact because the queue only drains at pulls —
// occupancy cannot fall between two pulls.
func (q *QueueSource[S]) admit(c *memsim.Core, now uint64) {
	for q.next < len(q.arrivals) && q.arrivals[q.next] <= now {
		// Front-door recovery checks, before any queueing: a request already
		// resolved by a hedge is consumed silently, a browned-out class is
		// shed, an open breaker redirects to a healthy sibling. Each counts
		// the offer on this (home) shard.
		if q.router != nil || q.brown != nil {
			idx := q.idxAt(int32(q.next))
			if q.router != nil && !q.router.pendingOrNew(idx) {
				q.rec.Offered++
				q.next++
				continue
			}
			if q.brown != nil && !q.brown.Admit(int(idx)%q.classes) {
				q.rec.Offered++
				q.rec.Shed++
				if q.router != nil {
					q.router.onShed(q.shard, idx)
				}
				q.next++
				q.maybeObserveSLO(now)
				continue
			}
			if q.router != nil && q.router.redirect(q.shard, idx, q.arrivals[q.next]) {
				q.rec.Offered++
				q.rec.Rerouted++
				q.next++
				continue
			}
		}
		if q.capacity > 0 && q.depth() >= q.capacity {
			if q.policy == Drop {
				q.rec.Offered++
				q.rec.recordDrop()
				q.tr.QueueDrop(q.arrivals[q.next], q.next)
				if q.router != nil {
					q.router.onDrop(q.shard, q.idxAt(int32(q.next)))
				}
				q.next++
				continue
			}
			// Block: the request waits outside the queue; stop admitting.
			q.tr.QueueBlock(now, q.depth())
			return
		}
		if q.depth() == len(q.ring) {
			q.grow()
		}
		c.Instr(costAdmit)
		q.rec.Offered++
		q.tr.QueueAdmit(q.arrivals[q.next], q.next)
		q.ring[q.tail&q.mask] = int32(q.next)
		q.tail++
		if q.router != nil {
			q.router.onAdmit(q.shard, q.idxAt(int32(q.next)))
		}
		q.next++
		q.maybeObserveSLO(now)
	}
}

// ProvisionedStages implements exec.Source.
func (q *QueueSource[S]) ProvisionedStages() int { return q.m.ProvisionedStages() }

// Pull implements exec.Source: admit due arrivals, then hand out the next
// runnable entry — injected recovery dispatches first, then the queue head.
// Entries whose deadline expired while queued, and copies of requests a
// sibling already resolved, are skipped (each skip still pays the pop cost).
func (q *QueueSource[S]) Pull(c *memsim.Core, s *S, now uint64, pr *exec.PullResult) {
	q.admit(c, now)
	q.rec.sampleDepth(q.depth())
	q.tr.QueueDepth(now, q.depth())
	for q.extraHead < len(q.extras) && q.extras[q.extraHead].ready <= now {
		e := q.extras[q.extraHead]
		q.extraHead++
		c.Instr(costPop)
		if q.router != nil && !q.router.pendingOrNew(e.idx) {
			continue
		}
		if q.deadline != 0 && now > e.arrival+q.deadline {
			q.timeoutEntry(e.idx, e.arrival, now)
			continue
		}
		q.rec.recordQueueWait(now - e.ready)
		pr.Status = exec.Pulled
		pr.Out = q.m.Init(c, s, int(e.idx))
		pr.Req = exec.Request{Index: int(e.idx), Admit: e.arrival}
		return
	}
	for q.depth() > 0 {
		pos := q.ring[q.head&q.mask]
		q.head++
		c.Instr(costPop)
		idx := q.idxAt(pos)
		arrival := q.arrivals[pos]
		if q.router != nil && !q.router.pendingOrNew(idx) {
			continue
		}
		if q.deadline != 0 && now > arrival+q.deadline {
			q.timeoutEntry(idx, arrival, now)
			continue
		}
		q.rec.recordQueueWait(now - arrival)
		pr.Status = exec.Pulled
		pr.Out = q.m.Init(c, s, int(idx))
		pr.Req = exec.Request{Index: int(idx), Admit: arrival}
		return
	}
	wait, has := uint64(0), false
	if q.next < len(q.arrivals) {
		wait, has = q.arrivals[q.next], true
	}
	if q.extraHead < len(q.extras) {
		if r := q.extras[q.extraHead].ready; !has || r < wait {
			wait, has = r, true
		}
	}
	if has {
		pr.Status, pr.NextArrival = exec.Wait, wait
		return
	}
	if q.router != nil && !q.closed {
		h := q.horizon
		if h <= now {
			h = now + 1
		}
		pr.Status, pr.NextArrival = exec.Wait, h
		return
	}
	pr.Status = exec.Exhausted
}

// Stager implements exec.Source: the served machine.
func (q *QueueSource[S]) Stager() exec.Stager[S] { return q.m }

// Complete implements exec.Source: record admission→completion latency. With
// a router, only the first completion of a request counts; late duplicates
// (a hedge losing the race) are absorbed silently.
func (q *QueueSource[S]) Complete(req exec.Request, done uint64) {
	if q.router != nil && !q.router.onComplete(q.shard, int32(req.Index)) {
		return
	}
	q.rec.RecordLatency(done - req.Admit)
	q.lat.Record(done - req.Admit)
}
