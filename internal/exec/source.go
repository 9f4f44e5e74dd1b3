package exec

import (
	"math"

	"amac/internal/memsim"
)

// This file defines the pull-based lookup stream that feeds the execution
// engines (BaselineStream, GroupPrefetchStream, SoftwarePipelineStream here;
// core.RunStream for AMAC). A batch run is a stream over a MachineSource.
// Where a Machine is a fixed, pre-materialized batch of lookups — every
// index 0..NumLookups()-1 exists before the run starts — a Source hands out
// lookups one at a time and may answer "nothing has arrived yet", which is
// exactly the situation a request-serving system faces under open-loop
// traffic. Each request carries the simulated cycle at which it entered the
// system, so the source can account admission→completion latency per
// request.

// Request identifies one admitted lookup of a streaming run.
type Request struct {
	// Index is the lookup index the source passed to the underlying
	// machine's Init; it is only meaningful to the source itself.
	Index int
	// Admit is the simulated cycle at which the request entered the system
	// (its arrival), the start point of its measured latency.
	Admit uint64
}

// PullStatus says what a Source returned from Pull.
type PullStatus int

const (
	// Pulled means a request was admitted and its code stage 0 executed; the
	// PullResult carries the stage outcome and the request identity.
	Pulled PullStatus = iota
	// Wait means no request is available at the current cycle but more will
	// arrive; PullResult.NextArrival says when the engine may idle until.
	Wait
	// Exhausted means the stream has ended: every request was either pulled
	// or dropped, and none will arrive.
	Exhausted
)

// PullResult is the outcome of one Source.Pull call. Pull fills it in place
// rather than returning it: a struct this large is not kept in registers,
// so a returned PullResult was copied through memory at every call layer.
type PullResult struct {
	Status PullStatus
	// Out is stage 0's outcome (next stage, prefetch target), valid when
	// Status is Pulled.
	Out Outcome
	// Req identifies the pulled request, valid when Status is Pulled.
	Req Request
	// NextArrival is the earliest cycle at which a request will be
	// available, valid when Status is Wait.
	NextArrival uint64
}

// Source is a pull-based stream of lookups over per-lookup state S. The
// streaming engines draw work from it instead of iterating a fixed index
// range: an engine slot that frees asks the source for the next admitted
// request, and the source replies with the request's stage-0 outcome, with
// "wait until cycle X", or with end-of-stream. Completions are reported back
// so the source can record per-request latency.
//
// A Source is driven by a single engine on a single core and need not be
// safe for concurrent use; the sharded service layer gives every worker its
// own source.
type Source[S any] interface {
	// ProvisionedStages is the stage count GP and SPP provision for
	// (Machine.ProvisionedStages of the underlying operator).
	ProvisionedStages() int
	// Pull admits the next available request at simulated cycle now, runs
	// its code stage 0 into state s, and reports the result in *pr. It sets
	// Status and the fields valid for that status; the others may keep
	// values from an earlier pull.
	Pull(c *memsim.Core, s *S, now uint64, pr *PullResult)
	// Stager returns what executes code stages >= 1 of the requests Pull
	// admits: the underlying machine. An engine reads it once per run and
	// calls it for every later stage, so a stage costs the machine's own
	// dynamic call however many sources wrap it (forwarding each call
	// through a source would copy every Outcome once more per layer).
	Stager() Stager[S]
	// Complete records that the request finished at cycle done.
	Complete(req Request, done uint64)
}

// Stager executes one code stage (>= 1) of an in-flight lookup. Every
// Machine is a Stager.
type Stager[S any] interface {
	Stage(c *memsim.Core, s *S, stage int) Outcome
}

// MachineSource adapts a fixed Machine batch to the Source interface: every
// lookup is considered admitted at cycle 0 (the whole batch is materialized
// before the run starts), handed out in index order, and never waits. It is
// how every batch run executes: a batch is a stream that is ready at once and
// knows its own length (it implements Finite), so the streaming engines run
// it cycle for cycle the way a dedicated batch loop would.
type MachineSource[S any] struct {
	M Machine[S]
	// OnComplete, if non-nil, observes every completion.
	OnComplete func(req Request, done uint64)

	next int
}

// NewMachineSource wraps a machine as an always-ready source.
func NewMachineSource[S any](m Machine[S]) *MachineSource[S] {
	return &MachineSource[S]{M: m}
}

// ProvisionedStages implements Source.
func (ms *MachineSource[S]) ProvisionedStages() int { return ms.M.ProvisionedStages() }

// Pull implements Source: the next lookup in index order, admitted at cycle 0.
func (ms *MachineSource[S]) Pull(c *memsim.Core, s *S, now uint64, pr *PullResult) {
	if ms.next >= ms.M.NumLookups() {
		pr.Status = Exhausted
		return
	}
	i := ms.next
	ms.next++
	pr.Status = Pulled
	pr.Out = ms.M.Init(c, s, i)
	pr.Req = Request{Index: i}
}

// Stager implements Source: the machine itself.
func (ms *MachineSource[S]) Stager() Stager[S] { return ms.M }

// Complete implements Source.
func (ms *MachineSource[S]) Complete(req Request, done uint64) {
	if ms.OnComplete != nil {
		ms.OnComplete(req, done)
	}
}

// Remaining implements Finite: the lookups not yet pulled.
func (ms *MachineSource[S]) Remaining() int { return ms.M.NumLookups() - ms.next }

// Finite is implemented by sources that know, without polling, how many
// more requests Pull will hand out. An engine reads it once, when its run
// starts, and counts its own pulls from there: once the count reaches zero
// the run ends as soon as the last in-flight lookup completes, with no
// end-of-stream poll, which is how a batch of NumLookups lookups ends. A live
// queue cannot know its stream is over until a poll says so, and pays for
// that poll.
type Finite interface {
	Remaining() int
}

// Remaining returns the number of requests a Finite source still holds, or
// math.MaxInt for a live source, whose end only a poll can reveal.
func Remaining[S any](src Source[S]) int {
	if f, ok := src.(Finite); ok {
		return f.Remaining()
	}
	return math.MaxInt
}

// FailKind classifies a request an engine abandoned instead of completing.
type FailKind int

const (
	// FailDeadline: the request's in-flight time exceeded its deadline and
	// the engine closed the slot.
	FailDeadline FailKind = iota
	// FailCrash: the engine was aborted (a crashed shard) with the request
	// still in flight.
	FailCrash
)

// FailSink is implemented by sources that want to hear about requests the
// engine gave up on (deadline expiry, shard crash). Failed requests are never
// also Completed. Sources that do not implement it silently lose the
// notification — the engine's own RunStats still count the failure.
type FailSink interface {
	Fail(req Request, at uint64, kind FailKind)
}
