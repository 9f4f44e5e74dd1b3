// Package exec defines the stage-machine abstraction shared by every
// pointer-chasing technique in this repository and implements the paper's
// no-prefetch reference and its two prior-art techniques on top of it:
//
//   - Baseline: one lookup at a time, no software prefetching (Section 2.2.2),
//   - Group Prefetching (GP) of Chen et al. (Section 2.2.1),
//   - Software-Pipelined Prefetching (SPP) of Chen et al. / Kim et al.
//
// Each technique is one engine over a pull-based Source (stream.go); a
// batch run wraps its Machine in a MachineSource. The AMAC engine — the
// paper's contribution — lives in package core and schedules the same
// sources, so all four techniques execute identical per-stage work and
// differ only in scheduling and bookkeeping, exactly as in the paper's
// methodology.
//
// A Machine describes one database operator (hash probe, hash build,
// group-by, BST search, skip list search/insert) as numbered code stages
// over a per-lookup state, mirroring the paper's Table 1. Each stage does
// its own (charged) memory accesses and returns an Outcome saying which
// stage runs next, which address that stage will dereference (so the engine
// can prefetch it), and whether the lookup finished or must be retried
// because a latch is held by another in-flight lookup.
package exec

import (
	"sync"

	"amac/internal/memsim"
)

// Outcome is the result of executing one code stage for one lookup.
type Outcome struct {
	// NextStage is the stage to execute next. Ignored when Done is set.
	NextStage int
	// Prefetch is the address the next stage will dereference; engines
	// that prefetch issue it before moving to another lookup. Zero means
	// there is nothing useful to prefetch.
	Prefetch memsim.Addr
	// PrefetchBytes is the span to prefetch starting at Prefetch; zero
	// means a single cache line.
	PrefetchBytes int
	// Done marks the lookup as complete.
	Done bool
	// Retry means the stage could not make progress (a latch is held by
	// another in-flight lookup) and must be re-executed later. NextStage
	// still names the stage to re-execute.
	Retry bool
}

// Machine is a pointer-chasing operator expressed as code stages over a
// per-lookup state S. Implementations live in package ops.
type Machine[S any] interface {
	// NumLookups is the total number of independent lookups to perform.
	NumLookups() int
	// ProvisionedStages is the number of code stages (the paper's N+1)
	// that GP and SPP should provision for the common case; lookups that
	// need more are handled by those engines' bail-out paths.
	ProvisionedStages() int
	// Init executes code stage 0 for lookup i: it reads the input tuple,
	// computes the first target address, fills in the state, and returns
	// the outcome (normally NextStage 1 plus a prefetch target).
	Init(c *memsim.Core, s *S, i int) Outcome
	// Stage executes the given code stage (>= 1) for an in-flight lookup.
	Stage(c *memsim.Core, s *S, stage int) Outcome
}

// Engine bookkeeping costs, in abstract instructions. They model the loop,
// status-propagation and state-management overhead that distinguishes the
// techniques in the paper's Table 3 (GP executes 2.5x the baseline's
// instructions, SPP 1.9x, AMAC 1.5x). The per-stage operator work itself is
// charged by the stage bodies in package ops.
const (
	// CostLoopIter is the per-iteration loop overhead every technique pays.
	CostLoopIter = 2
	// CostGPStage is GP's per-executed-stage bookkeeping: the group loop,
	// spilling and refilling the per-lookup intermediate state that the
	// next stage's iteration will need, and maintaining the per-lookup
	// status array. GP pays the most per stage, which is why the paper
	// measures it at 2.5x the baseline instruction count (Table 3).
	CostGPStage = 10
	// CostGPSkip is charged when GP visits a lookup whose chain already
	// ended: the code stage is skipped but the status must be checked and
	// propagated (the paper's wasted work under early exit).
	CostGPSkip = 4
	// CostSPPStage is SPP's per-executed-stage bookkeeping (pipeline slot
	// state spill/fill; slightly cheaper than GP's grouped loops).
	CostSPPStage = 8
	// CostSPPSkip is charged when a pipeline slot holds an already-finished
	// lookup that must wait for its static refill point.
	CostSPPSkip = 3
	// CostBailout is charged when GP or SPP hand a lookup that exceeded the
	// provisioned stages to their sequential bail-out path.
	CostBailout = 4
	// CostRetrySpin is charged per spin iteration when a technique must
	// wait on a latch without being able to switch to other work.
	CostRetrySpin = 2
)

// retryLimit bounds latch spinning so that a buggy machine cannot hang the
// simulation; real workloads release latches after a bounded number of
// stages.
const retryLimit = 1 << 20

// outcomePool and flagPool recycle the per-run scheduling buffers of the GP
// engine (the Outcome-per-slot and done-per-slot arrays), so parameter
// sweeps that run an engine thousands of times reuse two buffers instead of
// allocating per run. The generic per-lookup state slice []S is recycled
// through GetStates' per-state-type pools (pool.go).
var outcomePool sync.Pool
var flagPool sync.Pool

// getOutcomes returns a zeroed Outcome buffer of length n from the pool.
func getOutcomes(n int) *[]Outcome { return GetPooled[Outcome](&outcomePool, n) }

// getFlags returns a zeroed bool buffer of length n from the pool.
func getFlags(n int) *[]bool { return GetPooled[bool](&flagPool, n) }

// IssuePrefetch issues the prefetch requested by an outcome, if any.
func IssuePrefetch(c *memsim.Core, o Outcome) {
	if o.Prefetch == 0 {
		return
	}
	n := o.PrefetchBytes
	if n <= 0 {
		n = 1
	}
	c.PrefetchSpan(o.Prefetch, n)
}
