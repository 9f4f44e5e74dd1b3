package core

import (
	"sync"

	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/obs"
)

// streamSlot is one circular-buffer entry. The lookup's operator-specific
// state (key, rid, pointer, ...) lives in the engine's parallel states slice;
// the slot records the scheduling fields and the identity of the request
// occupying it (for completion accounting).
type streamSlot struct {
	busy    bool
	stage   int
	req     exec.Request
	retries uint64
}

// streamSlotPool recycles the scheduling slots across runs, so sweeps that
// execute the engine thousands of times (figure 6 alone runs it once per
// window per skew; a load sweep once per technique, load and worker) reuse
// one buffer per concurrent run.
var streamSlotPool sync.Pool

// getStreamSlots returns a zeroed slot buffer of length n from the pool.
func getStreamSlots(n int) *[]streamSlot { return exec.GetPooled[streamSlot](&streamSlotPool, n) }

// RunStream executes AMAC over a pull-based request stream instead of a
// fixed lookup batch: every slot of the circular buffer refills from the
// Source the moment its lookup completes, so under open-loop traffic a
// freed slot picks up the next queued request immediately — mid-batch, at
// any point in any other lookup's chain. This is the paper's merged
// terminal/initial stage optimisation applied to serving: where the GP and
// SPP stream adapters (package exec) admit work only at group boundaries or
// static refill points and so let the admission queue grow while in-flight
// work drains, AMAC's admission granularity is a single slot visit. The
// difference is measurable as tail latency in the serveN experiment.
//
// The engine idles (Core.AdvanceTo) only when no request is admitted AND no
// lookup is in flight; a source that reports Wait while other slots hold
// work simply leaves the slot empty until the rolling counter returns to it
// after the source's reported next arrival.
//
// Completions are reported to the source at the cycle the Done outcome is
// observed, which is when the response could be sent.
//
// Over an exec.Finite source (a batch in a MachineSource) the width is
// clamped to the source's remaining requests, and the run ends the moment
// the last request completes, without an end-of-stream poll or a further
// controller sample: a batch runs exactly as a dedicated batch loop would.
func RunStream[S any](c *memsim.Core, src exec.Source[S], opts Options) RunStats {
	e := NewStreamEngine(c, src, opts)
	e.Run(^uint64(0))
	stats := e.Stats()
	e.Close()
	return stats
}

// StreamEngine is the streaming AMAC scheduler as a resumable object: Run
// executes the exact loop RunStream runs, but returns control at a caller-
// chosen simulated-cycle bound instead of only at end-of-stream. Pausing
// happens between slot visits and charges nothing, so driving an engine in
// bounded slices is bit-identical to one uninterrupted run — the property
// the fault-tolerant serving coordinator is built on: it steps every shard's
// engine on a common virtual timeline, injecting faults and routing recovery
// traffic at the slice boundaries, without perturbing a single simulated
// cycle of the execution in between.
//
// A StreamEngine additionally enforces Options.Deadline on in-flight
// requests and supports Abort (a crashed shard discarding its in-flight
// work); both paths retire slots through the same drain bookkeeping a
// controller-driven window shrink uses, so no slot and no pooled state is
// ever leaked: Initiated = Completed + TimedOut + Aborted once the engine
// finishes.
type StreamEngine[S any] struct {
	c   *memsim.Core
	src exec.Source[S]
	st  exec.Stager[S] // src.Stager(), resolved once
	tr  *obs.CoreTrace

	deadline uint64
	noRefill bool
	sink     exec.FailSink

	ctl   exec.WidthController
	probe widthProbe

	states    []S
	putStates func()
	slotsP    *[]streamSlot
	slots     []streamSlot

	pr        exec.PullResult // tryFill's pull result, filled in place
	stats     RunStats
	live      int
	left      int // requests a finite source still holds (exec.Remaining)
	exhausted bool
	waitUntil uint64

	// admit is the refill bound: slots [0, admit) may pull requests. After a
	// shrink, admit drops first and width follows once the surplus in-flight
	// lookups in [admit, width) complete and retire their slots.
	width    int
	admit    int
	draining int
	capW     int

	k       int
	stopped bool
	done    bool
}

// NewStreamEngine prepares a streaming run without executing any of it. The
// caller must Close the engine when finished with it (RunStream does all
// three steps).
func NewStreamEngine[S any](c *memsim.Core, src exec.Source[S], opts Options) *StreamEngine[S] {
	width := opts.width()
	e := &StreamEngine[S]{
		c:        c,
		src:      src,
		tr:       opts.Trace,
		deadline: opts.Deadline,
		noRefill: opts.DisableImmediateRefill,
		ctl:      opts.Controller,
		left:     exec.Remaining(src),
		st:       src.Stager(),
	}
	e.sink, _ = src.(exec.FailSink)
	if e.left == 0 {
		// An empty batch: nothing to schedule, no slot to provision.
		e.stats.Width = width
		e.done = true
		return e
	}
	width = min(width, e.left)

	// Controller-driven runs provision the slot buffer at the growth cap and
	// move the active window [0, width) inside it; static runs allocate
	// exactly the requested width.
	e.width, e.admit, e.capW = width, width, width
	if e.ctl != nil {
		e.capW = min(opts.maxWidth(width), e.left)
		e.probe = newWidthProbe(c, opts.probeInterval(width))
	}

	e.stats.Width = width
	e.stats.MinWidth, e.stats.MaxWidth = width, width
	e.tr.SetWidth(width)

	e.states, e.putStates = exec.GetStates[S](e.capW)
	e.slotsP = getStreamSlots(e.capW)
	e.slots = *e.slotsP
	return e
}

// Close releases the engine's pooled slot and state buffers. The engine must
// not be used afterwards.
func (e *StreamEngine[S]) Close() {
	if e.slotsP == nil {
		return
	}
	e.putStates()
	streamSlotPool.Put(e.slotsP)
	e.slotsP = nil
	e.slots = nil
	e.states = nil
}

// Stats returns the engine's scheduling counters so far.
func (e *StreamEngine[S]) Stats() RunStats { return e.stats }

// Done reports whether the run has finished (source exhausted or stopped,
// and every in-flight lookup retired).
func (e *StreamEngine[S]) Done() bool { return e.done }

// applyWidth moves the admission bound to target, draining surplus slots.
func (e *StreamEngine[S]) applyWidth(target int) {
	if target == e.admit {
		return
	}
	e.stats.WidthChanges++
	if target < e.stats.MinWidth {
		e.stats.MinWidth = target
	}
	if target > e.stats.MaxWidth {
		e.stats.MaxWidth = target
	}
	if target >= e.width {
		e.width, e.admit, e.draining = target, target, 0
		return
	}
	e.admit = target
	e.draining = 0
	for i := e.admit; i < e.width; i++ {
		if e.slots[i].busy {
			e.draining++
		}
	}
	if e.draining == 0 {
		e.width = e.admit
	}
}

// tryFill pulls the next admitted request into empty slot k; it returns
// true if the slot now holds an in-flight lookup.
func (e *StreamEngine[S]) tryFill(k int) bool {
	c := e.c
	if k >= e.admit || e.exhausted || c.Cycle() < e.waitUntil {
		return false
	}
	pullAt := c.Cycle()
	c.Instr(CostStateSwap)
	p := c.Profiler()
	p.PushStage(0)
	pr := &e.pr
	e.src.Pull(c, &e.states[k], c.Cycle(), pr)
	p.Pop()
	switch pr.Status {
	case exec.Exhausted:
		e.exhausted = true
	case exec.Wait:
		e.waitUntil = pr.NextArrival
		if e.waitUntil <= c.Cycle() {
			e.waitUntil = c.Cycle() + 1
		}
	case exec.Pulled:
		if e.left--; e.left == 0 {
			e.exhausted = true
		}
		e.stats.Initiated++
		exec.IssuePrefetch(c, pr.Out)
		e.tr.SlotStart(pullAt, k, pr.Req.Index)
		if pr.Out.Prefetch != 0 {
			e.tr.SlotPrefetch(c.Cycle(), k)
		}
		if pr.Out.Done {
			e.stats.Completed++
			e.src.Complete(pr.Req, c.Cycle())
			e.tr.SlotEnd(c.Cycle(), k)
			return false
		}
		e.slots[k] = streamSlot{busy: true, stage: pr.Out.NextStage, req: pr.Req}
		e.live++
		return true
	}
	return false
}

// retire empties busy slot k after its request left the engine (completed,
// timed out or aborted), running the shrink-drain bookkeeping and — on the
// completion path — the immediate refill that defines streaming AMAC.
func (e *StreamEngine[S]) retire(k int, refill bool) {
	e.live--
	e.slots[k] = streamSlot{}
	if k >= e.admit {
		if e.draining > 0 {
			if e.draining--; e.draining == 0 {
				e.width = e.admit
			}
		}
	} else if refill && !e.noRefill {
		e.tryFill(k)
	}
}

// Abort discards every in-flight request — the engine's state when its shard
// crashes. Each busy slot is reported to the source's exec.FailSink (when
// implemented) with FailCrash and counted in Stats().Aborted; the slot and
// its pooled state are retired through the normal drain path, so nothing
// leaks and the engine can keep running after the shard restarts. Returns
// the number of requests discarded.
func (e *StreamEngine[S]) Abort() int {
	n := 0
	for k := range e.slots {
		s := &e.slots[k]
		if !s.busy {
			continue
		}
		n++
		e.stats.Aborted++
		if e.sink != nil {
			e.sink.Fail(s.req, e.c.Cycle(), exec.FailCrash)
		}
		e.tr.SlotAbandon(e.c.Cycle(), k, s.req.Index, 1)
		e.states[k] = *new(S)
		e.retire(k, false)
	}
	return n
}

// Run executes the streaming loop until the source is exhausted (or a
// controller stop) and every in-flight lookup has retired — then it returns
// true — or until the simulated clock reaches limit, returning false with
// the engine paused between slot visits. Passing ^uint64(0) runs to
// completion. A paused engine holds no hidden host state: resuming with a
// later limit continues the identical cycle-for-cycle execution.
func (e *StreamEngine[S]) Run(limit uint64) bool {
	if e.done {
		return true
	}
	c := e.c
	p := c.Profiler()
	p.Push(p.Frame("AMAC"))
	defer p.Pop()
	for {
		if c.Cycle() >= limit {
			return false
		}
		if e.left == 0 && e.live == 0 {
			// A finite source is spent and its last request completed.
			e.done = true
			return true
		}
		if e.k >= e.width {
			e.k = 0
		}
		k := e.k
		// Sampling stops with the run: a stopped engine only drains, and a
		// late positive verdict must not reopen admission.
		if e.ctl != nil && !e.stopped && e.stats.Completed-e.probe.lastCompleted >= e.probe.interval {
			w := e.probe.sample(c, e.admit, e.stats.Completed)
			e.tr.EngineSample(c.Cycle(), e.admit, w.Outstanding)
			switch target := e.ctl.Sample(w); {
			case target < 0:
				// StopRun: close admission and let the in-flight lookups
				// drain; the source keeps the unserved requests.
				e.stopped = true
				e.admit = 0
				e.draining = 0
				e.tr.Decision(c.Cycle(), obs.DecStopRun, int64(e.stats.Initiated), 0)
			case target > 0:
				old := e.admit
				e.applyWidth(clampWidth(target, e.capW))
				if e.admit != old {
					e.tr.WidthChange(c.Cycle(), e.admit)
				}
			}
		}
		s := &e.slots[k]
		if !s.busy {
			if !e.tryFill(k) && e.live == 0 {
				if e.exhausted || e.stopped {
					e.done = true
					return true
				}
				// Nothing in flight and nothing admitted: sleep until the
				// next arrival — or the pause bound, whichever is earlier.
				// The wait is queue idle, charged under the admit frame.
				p.Push(p.Frame("admit"))
				if e.waitUntil > limit {
					c.AdvanceTo(limit)
					p.Pop()
					return false
				}
				c.AdvanceTo(e.waitUntil)
				p.Pop()
				continue
			}
			e.k++
			continue
		}

		// Deadline enforcement happens at the slot visit (the engine touches
		// a request's state nowhere else): an expired request is closed and
		// its slot drained without abandoning the in-flight memory ops —
		// whatever its last stage left in the MSHRs settles on its own.
		if e.deadline != 0 && c.Cycle() > s.req.Admit+e.deadline {
			c.Instr(CostStateSwap)
			e.stats.TimedOut++
			if e.sink != nil {
				e.sink.Fail(s.req, c.Cycle(), exec.FailDeadline)
			}
			e.tr.SlotAbandon(c.Cycle(), k, s.req.Index, 0)
			e.states[k] = *new(S)
			e.retire(k, true)
			e.k++
			continue
		}

		stage := s.stage
		visitAt := c.Cycle()
		c.Instr(CostStateSwap)
		p.PushStage(stage)
		out := e.st.Stage(c, &e.states[k], stage)
		p.Pop()
		e.stats.StageVisits++
		if out.Retry {
			s.stage = out.NextStage
			s.retries++
			e.stats.Retries++
			e.tr.SlotRetry(c.Cycle(), k, stage)
			e.k++
			continue
		}
		e.tr.StageVisit(visitAt, c.Cycle(), k, stage)
		if !out.Done {
			exec.IssuePrefetch(c, out)
			if out.Prefetch != 0 {
				e.tr.SlotPrefetch(c.Cycle(), k)
			}
			s.stage = out.NextStage
			e.k++
			continue
		}

		// The lookup completed: report it and refill the slot right away so
		// an in-flight memory access is never wasted (unless the ablation
		// disabled immediate refill or the slot is draining out of a shrunk
		// window).
		e.stats.Completed++
		e.src.Complete(s.req, c.Cycle())
		e.tr.SlotEnd(c.Cycle(), k)
		e.retire(k, true)
		e.k++
	}
}
