package amac

import (
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/ops"
)

// Addr is a simulated memory address (see Arena and Core).
type Addr = memsim.Addr

// LineSize is the simulated cache-line size in bytes.
const LineSize = memsim.LineSize

// Outcome is the result of executing one code stage of a lookup: the next
// stage to run, the address that stage will dereference (so the engine can
// prefetch it), and whether the lookup completed or must be retried because
// a latch is held by another in-flight lookup.
type Outcome = exec.Outcome

// Machine describes a pointer-chasing operator as numbered code stages over
// a per-lookup state S, following the paper's Table 1. Implement it to run
// your own data structure traversals under any of the four engines; the
// operators in this library (hash join, group-by, BST, skip list) are
// implementations of the same interface.
type Machine[S any] = exec.Machine[S]

// Options tunes the AMAC scheduler (circular-buffer width, refill policy).
type Options = core.Options

// RunStats summarises one AMAC execution.
type RunStats = core.RunStats

// Run executes every lookup of machine m on core c using Asynchronous
// Memory Access Chaining — the paper's contribution.
func Run[S any](c *Core, m Machine[S], opts Options) RunStats {
	return core.Run(c, m, opts)
}

// RunBaseline executes the machine one lookup at a time with no prefetching.
func RunBaseline[S any](c *Core, m Machine[S]) {
	exec.BaselineStream(c, exec.NewMachineSource(m), nil)
}

// Technique selects one of the four execution schemes when using RunWith.
type Technique = ops.Technique

// The four techniques evaluated in the paper.
const (
	Baseline = ops.Baseline
	GP       = ops.GP
	SPP      = ops.SPP
	AMAC     = ops.AMAC
)

// Techniques lists all four techniques in the paper's figure order.
var Techniques = ops.Techniques

// Params carries the per-technique tuning knob (the number of in-flight
// lookups) used by RunWith.
type Params = ops.Params

// RunWith executes the machine with the selected technique, which is how the
// experiment harness and the examples compare the four schemes on identical
// operator code.
func RunWith[S any](c *Core, m Machine[S], tech Technique, p Params) {
	ops.RunMachine(c, m, tech, p)
}
