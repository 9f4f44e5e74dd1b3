package exec

import (
	"fmt"
	"sync"

	"amac/internal/memsim"
	"amac/internal/obs"
)

// pipeSlot is one SPP pipeline slot.
type pipeSlot struct {
	busy    bool // a request occupies the slot (it may already be done)
	done    bool // the occupying request finished early
	age     int  // code stages elapsed since the request entered
	current Outcome
	req     Request
}

// pipeSlotPool recycles the pipeline-slot buffers across runs.
var pipeSlotPool sync.Pool

// getPipeSlots returns a zeroed pipeline-slot buffer of length n from the pool.
func getPipeSlots(n int) *[]pipeSlot { return GetPooled[pipeSlot](&pipeSlotPool, n) }

// This file holds the engines of the no-prefetch reference and the two
// prior-art techniques, each a single loop over a Source. A batch run is
// the same loop over a MachineSource. Each engine keeps its technique's
// defining restriction on WHEN a freed slot may accept new work, because
// that restriction is exactly what the paper's flexibility argument is
// about:
//
//   - BaselineStream serves one request at a time, start to finish;
//   - GroupPrefetchStream admits requests only at group boundaries: a group
//     runs to full completion (including its sequential clean-up pass) before
//     the queue is consulted again, so requests arriving mid-group wait out
//     the whole batch;
//   - SoftwarePipelineStream refills a pipeline slot only at its static
//     refill point (after the provisioned number of stages), even when the
//     slot's lookup finished early.
//
// AMAC's engine (core.RunStream) refills any slot the moment its lookup
// completes, which is why it holds tail latency flat at arrival rates where
// the batch-boundary engines' queues grow. Completions are always reported
// at the cycle the engine observes Outcome.Done — the response could be sent
// then — so the engines differ only in admission, never in completion
// accounting.
//
// Every engine takes an optional trace sink. All tracer methods are
// nil-safe, so a nil tracer keeps the untraced behaviour and allocation
// profile. Each engine counts down the request budget of a Finite source
// (see Remaining) and stops pulling once it is spent, and runs every stage
// after stage 0 on the source's Stager.

// waitCycle returns the cycle an engine may idle until after a Wait pull,
// guarding against a source that reports a non-future arrival.
func waitCycle(now, next uint64) uint64 {
	if next <= now {
		return now + 1
	}
	return next
}

// BaselineStream serves requests one at a time with no software prefetching:
// each dependent memory access stalls the core for its full latency, which
// is the no-prefetch reference every figure in the paper normalizes against.
// The single in-flight request's lifecycle records on trace slot 0.
//
// A stage that returns Retry is spun on (with a per-spin instruction charge),
// matching the baseline implementations' latch spinning; since the baseline
// has only one lookup in flight, retries can only happen if the latch was
// left held by a previous phase, which the machines never do, so the spin
// loop is bounded defensively.
func BaselineStream[S any](c *memsim.Core, src Source[S], tr *obs.CoreTrace) {
	p := c.Profiler()
	p.Push(p.Frame("Baseline"))
	defer p.Pop()
	admitF := p.Frame("admit")
	tr.SetWidth(1)
	left := Remaining(src)
	st := src.Stager()
	var pr PullResult
	var s S
	for left > 0 {
		pullAt := c.Cycle()
		c.Instr(CostLoopIter)
		p.PushStage(0)
		src.Pull(c, &s, c.Cycle(), &pr)
		p.Pop()
		switch pr.Status {
		case Exhausted:
			return
		case Wait:
			p.Push(admitF)
			c.AdvanceTo(waitCycle(c.Cycle(), pr.NextArrival))
			p.Pop()
			continue
		}
		left--
		tr.SlotStart(pullAt, 0, pr.Req.Index)
		out := pr.Out
		spins := 0
		for !out.Done {
			c.Instr(CostLoopIter)
			p.PushStage(out.NextStage)
			next := st.Stage(c, &s, out.NextStage)
			p.Pop()
			if next.Retry {
				spins++
				c.Instr(CostRetrySpin)
				if spins > retryLimit {
					panic(fmt.Sprintf("exec: baseline request %d spun on a latch %d times; machine is stuck", pr.Req.Index, spins))
				}
				tr.SlotRetry(c.Cycle(), 0, out.NextStage)
				out.NextStage = next.NextStage
				continue
			}
			spins = 0
			out = next
		}
		src.Complete(pr.Req, c.Cycle())
		tr.SlotEnd(c.Cycle(), 0)
	}
}

// GroupPrefetchStream runs Group Prefetching (Chen et al.), the first of the
// paper's two prior-art techniques (Section 2.2.1): up to group requests are
// admitted from the source and every code stage is executed for the whole
// group before the next stage begins, so up to group independent prefetches
// are in flight at a time. Only after the group has run to completion is the
// source consulted for the next group. If at least one request is admitted
// the group starts immediately — GP does not hold a partial group open
// waiting for stragglers — but requests that arrive after the group launched
// wait for the entire batch to drain, which is the batch-boundary refill
// penalty the serving experiments measure.
//
// The rigidity the paper criticises is reproduced faithfully:
//
//   - a lookup that terminates early still costs a status check in every
//     remaining stage of its group (lost MLP and wasted instructions),
//   - a lookup that needs more stages than provisioned is completed by a
//     sequential clean-up pass at the group boundary,
//   - a lookup that cannot acquire a latch keeps retrying in its remaining
//     stages and, if still blocked, is also handled by the clean-up pass.
//
// With a trace sink, each group records a begin/end span on the engine track
// (begin at the first member's admission, end after the clean-up pass), and
// each member's lifecycle records on the slot track of its group position.
func GroupPrefetchStream[S any](c *memsim.Core, src Source[S], group int, tr *obs.CoreTrace) {
	p := c.Profiler()
	p.Push(p.Frame("GP"))
	defer p.Pop()
	admitF := p.Frame("admit")
	if group < 1 {
		group = 1
	}
	tr.SetWidth(group)
	depth := src.ProvisionedStages()
	if depth < 1 {
		depth = 1
	}
	left := Remaining(src)
	st := src.Stager()
	var pr PullResult

	states, putStates := GetStates[S](group)
	defer putStates()
	currentP, doneP, reqsP := getOutcomes(group), getFlags(group), getRequests(group)
	defer func() { outcomePool.Put(currentP); flagPool.Put(doneP); requestPool.Put(reqsP) }()
	current, done, reqs := *currentP, *doneP, *reqsP

	for left > 0 {
		// Admission: gather the group from whatever the queue holds now. The
		// whole gather, code stage 0 included, runs under the "admit" frame,
		// so the batch-boundary idle GP accrues between groups shows up as
		// GP;admit idle in a flamegraph.
		p.Push(admitF)
		g := 0
		for g < group && left > 0 {
			pullAt := c.Cycle()
			c.Instr(CostGPStage)
			p.PushStage(0)
			src.Pull(c, &states[g], c.Cycle(), &pr)
			p.Pop()
			if pr.Status == Exhausted {
				break
			}
			if pr.Status == Wait {
				if g > 0 {
					break // launch the partial group; GP never waits mid-batch
				}
				c.AdvanceTo(waitCycle(c.Cycle(), pr.NextArrival))
				continue
			}
			left--
			if g == 0 {
				tr.GroupStart(pullAt, group)
			}
			tr.SlotStart(pullAt, g, pr.Req.Index)
			IssuePrefetch(c, pr.Out)
			current[g] = pr.Out
			done[g] = pr.Out.Done
			reqs[g] = pr.Req
			if pr.Out.Done {
				src.Complete(pr.Req, c.Cycle())
				tr.SlotEnd(c.Cycle(), g)
			}
			g++
		}
		p.Pop()
		if g == 0 {
			return
		}

		// Code stages 1..depth-1, each executed for the whole group.
		for round := 1; round < depth; round++ {
			for j := 0; j < g; j++ {
				if done[j] {
					// The lookup already terminated: the stage is skipped but
					// the group loop still checks and propagates its status.
					c.Instr(CostGPSkip)
					continue
				}
				stage := current[j].NextStage
				visitAt := c.Cycle()
				c.Instr(CostGPStage)
				p.PushStage(stage)
				out := st.Stage(c, &states[j], stage)
				p.Pop()
				if out.Retry {
					// Latch held by another in-flight lookup: burn the stage
					// and retry in the next round (or the clean-up pass).
					current[j].NextStage = out.NextStage
					current[j].Prefetch = 0
					tr.SlotRetry(c.Cycle(), j, stage)
					continue
				}
				tr.StageVisit(visitAt, c.Cycle(), j, stage)
				IssuePrefetch(c, out)
				current[j] = out
				if out.Done {
					done[j] = true
					src.Complete(reqs[j], c.Cycle())
					tr.SlotEnd(c.Cycle(), j)
				}
			}
		}

		// Clean-up pass: lookups whose chains are longer than provisioned (or
		// that are still blocked on a latch) are completed without the
		// benefit of prefetching before the next group may start.
		finishSequential(c, st, states[:g], current[:g], done[:g], func(j int) {
			src.Complete(reqs[j], c.Cycle())
			tr.SlotEnd(c.Cycle(), j)
		})
		tr.GroupEnd(c.Cycle(), g)
	}
}

// finishSequential completes every unfinished lookup without prefetching.
// Lookups are serviced round-robin so that a lookup blocked on a latch held
// by another unfinished lookup of the same batch cannot deadlock the pass.
// onDone observes each completion.
func finishSequential[S any](c *memsim.Core, st Stager[S], states []S, current []Outcome, done []bool, onDone func(j int)) {
	p := c.Profiler()
	p.Push(p.Frame("cleanup"))
	defer p.Pop()
	remaining := 0
	for j := range done {
		if !done[j] {
			remaining++
			c.Instr(CostBailout)
		}
	}
	stuck := 0
	for remaining > 0 {
		progressed := false
		for j := range done {
			if done[j] {
				continue
			}
			c.Instr(CostLoopIter)
			p.PushStage(current[j].NextStage)
			out := st.Stage(c, &states[j], current[j].NextStage)
			p.Pop()
			if out.Retry {
				c.Instr(CostRetrySpin)
				current[j].NextStage = out.NextStage
				continue
			}
			progressed = true
			current[j] = out
			if out.Done {
				done[j] = true
				remaining--
				onDone(j)
			}
		}
		if progressed {
			stuck = 0
			continue
		}
		stuck++
		if stuck > retryLimit {
			panic("exec: clean-up pass made no progress; a latch is held by a lookup outside the batch")
		}
	}
}

// SoftwarePipelineStream runs Software-Pipelined Prefetching (Chen et al.;
// also applied to trees by Kim et al.), the second prior-art technique of
// Section 2.2.1: inflight requests occupy pipeline slots at staggered
// stages, every outer iteration advances each slot by one code stage, and a
// slot accepts a new request only at its static refill point — after the
// provisioned number of stages has elapsed — regardless of whether its
// lookup actually finished earlier.
//
// The consequences the paper highlights are reproduced:
//
//   - early-terminating lookups waste their remaining pipeline slots
//     (status-check no-ops, lost MLP),
//   - lookups longer than the provisioned depth are bailed out of the
//     pipeline and completed on a sequential side path without prefetching,
//   - a lookup that cannot acquire a latch burns pipeline stages retrying
//     and is eventually serialized on the same side path.
//
// The run ends once the source is exhausted and no unfinished request
// remains: slots whose requests finished early are not swept on to their
// refill points, since no request is left to refill them with. With a trace
// sink, each slot's occupancy records as a begin/end span (begin at
// admission, end at the slot's refill point, bail-out or the end of the
// run), making SPP's fixed refill boundaries directly comparable to AMAC's
// per-completion refill in a trace viewer.
func SoftwarePipelineStream[S any](c *memsim.Core, src Source[S], inflight int, tr *obs.CoreTrace) {
	p := c.Profiler()
	p.Push(p.Frame("SPP"))
	defer p.Pop()
	admitF := p.Frame("admit")
	if inflight < 1 {
		inflight = 1
	}
	tr.SetWidth(inflight)
	depth := src.ProvisionedStages()
	if depth < 1 {
		depth = 1
	}
	left := Remaining(src)
	st := src.Stager()
	var pr PullResult

	states, putStates := GetStates[S](inflight)
	defer putStates()
	slotsP := getPipeSlots(inflight)
	defer pipeSlotPool.Put(slotsP)
	slots := *slotsP

	// Bailed-out requests are completed alongside the pipeline, one stage per
	// outer iteration, without prefetching; processing them round-robin
	// (rather than spinning) keeps latch dependencies deadlock-free. The side
	// path stays nil until a lookup actually overruns the provisioned depth,
	// so the common no-bail run allocates nothing for it.
	var bailStates []S
	var bailCurrent []Outcome
	var bailReqs []Request

	waitUntil := uint64(0) // no arrivals before this cycle; skip re-polling
	occupied := 0          // slots holding a request (done or not)
	active := 0            // slots holding an unfinished request
	pending := 0           // bailed-out requests not yet finished

	for {
		if left == 0 && active == 0 && pending == 0 {
			for j := range slots {
				if slots[j].busy {
					tr.SlotEnd(c.Cycle(), j)
				}
			}
			return
		}
		if occupied == 0 && pending == 0 && waitUntil > c.Cycle() {
			// Nothing in flight, nothing admitted, and a pull already
			// reported Wait: idle to the arrival. (Never idle before the
			// first pull attempt — requests may be ready at cycle 0.)
			p.Push(admitF)
			c.AdvanceTo(waitUntil)
			p.Pop()
		}
		for j := 0; j < inflight; j++ {
			slot := &slots[j]
			switch {
			case !slot.busy:
				if left == 0 || c.Cycle() < waitUntil {
					continue
				}
				pullAt := c.Cycle()
				c.Instr(CostSPPStage)
				p.PushStage(0)
				src.Pull(c, &states[j], c.Cycle(), &pr)
				p.Pop()
				if pr.Status == Exhausted {
					left = 0
					continue
				}
				if pr.Status == Wait {
					waitUntil = waitCycle(c.Cycle(), pr.NextArrival)
					continue
				}
				left--
				tr.SlotStart(pullAt, j, pr.Req.Index)
				IssuePrefetch(c, pr.Out)
				slot.busy = true
				slot.done = pr.Out.Done
				slot.age = 1
				slot.current = pr.Out
				slot.req = pr.Req
				occupied++
				if pr.Out.Done {
					src.Complete(pr.Req, c.Cycle())
				} else {
					active++
				}
			case slot.done:
				// The request finished before its static slot expired: the
				// pipeline still spends an iteration checking it.
				c.Instr(CostSPPSkip)
				slot.age++
				if slot.age >= depth {
					slot.busy = false
					occupied--
					tr.SlotEnd(c.Cycle(), j)
				}
			default:
				stage := slot.current.NextStage
				visitAt := c.Cycle()
				c.Instr(CostSPPStage)
				p.PushStage(stage)
				out := st.Stage(c, &states[j], stage)
				p.Pop()
				slot.age++
				if out.Retry {
					slot.current.NextStage = out.NextStage
					slot.current.Prefetch = 0
					tr.SlotRetry(c.Cycle(), j, stage)
				} else {
					tr.StageVisit(visitAt, c.Cycle(), j, stage)
					IssuePrefetch(c, out)
					slot.current = out
					if out.Done {
						slot.done = true
						active--
						src.Complete(slot.req, c.Cycle())
					}
				}
				if slot.age >= depth {
					if !slot.done {
						// Longer than provisioned: bail out of the pipeline.
						c.Instr(CostBailout)
						bailStates = append(bailStates, states[j])
						bailCurrent = append(bailCurrent, slot.current)
						bailReqs = append(bailReqs, slot.req)
						active--
						pending++
					}
					slot.busy = false
					occupied--
					tr.SlotEnd(c.Cycle(), j)
				}
			}
		}

		// Advance every bailed-out request by one (unprefetched) stage and
		// drop the ones that finish, so the side list stays proportional to
		// the number of genuinely outstanding bail-outs.
		keep := 0
		for b := 0; b < len(bailStates); b++ {
			c.Instr(CostLoopIter)
			p.Push(p.Frame("bail"))
			p.PushStage(bailCurrent[b].NextStage)
			out := st.Stage(c, &bailStates[b], bailCurrent[b].NextStage)
			p.Pop()
			p.Pop()
			switch {
			case out.Retry:
				c.Instr(CostRetrySpin)
				bailCurrent[b].NextStage = out.NextStage
			case out.Done:
				src.Complete(bailReqs[b], c.Cycle())
				pending--
				continue
			default:
				bailCurrent[b] = out
			}
			bailStates[keep] = bailStates[b]
			bailCurrent[keep] = bailCurrent[b]
			bailReqs[keep] = bailReqs[b]
			keep++
		}
		bailStates = bailStates[:keep]
		bailCurrent = bailCurrent[:keep]
		bailReqs = bailReqs[:keep]

		c.Instr(CostLoopIter)
	}
}
