package ops

import (
	"fmt"

	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/memsim"
)

// Technique selects which execution engine schedules an operator's stage
// machine.
type Technique int

const (
	// Baseline is the no-prefetch reference implementation.
	Baseline Technique = iota
	// GP is Group Prefetching (Chen et al.).
	GP
	// SPP is Software-Pipelined Prefetching (Chen et al., Kim et al.).
	SPP
	// AMAC is Asynchronous Memory Access Chaining, the paper's contribution.
	AMAC
)

// Techniques lists all techniques in the order the paper's figures use.
var Techniques = []Technique{Baseline, GP, SPP, AMAC}

// PrefetchingTechniques lists the three prefetching schemes (no baseline).
var PrefetchingTechniques = []Technique{GP, SPP, AMAC}

// String returns the label used in the paper's figures.
func (t Technique) String() string {
	switch t {
	case Baseline:
		return "Baseline"
	case GP:
		return "GP"
	case SPP:
		return "SPP"
	case AMAC:
		return "AMAC"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// ParseTechnique converts a label into a Technique.
func ParseTechnique(s string) (Technique, error) {
	for _, t := range Techniques {
		if t.String() == s {
			return t, nil
		}
	}
	return Baseline, fmt.Errorf("ops: unknown technique %q", s)
}

// Params carries the per-technique tuning knob the paper's sensitivity
// analysis varies (Figure 6): the number of in-flight lookups — the group
// size for GP, the pipeline occupancy for SPP, the circular-buffer width for
// AMAC. The baseline ignores it.
type Params struct {
	// Window is the number of in-flight lookups; zero selects the default
	// of 10, the best-performing setting on the paper's Xeon.
	Window int
}

// DefaultWindow is used when Params.Window is zero.
const DefaultWindow = 10

func (p Params) window() int {
	if p.Window <= 0 {
		return DefaultWindow
	}
	return p.Window
}

// Options converts the parameters to engine options: Window is GP's group
// size, SPP's pipeline occupancy and AMAC's starting width.
func (p Params) Options() core.Options {
	return core.Options{Width: p.window()}
}

// RunMachine executes every lookup of machine m on core c using the given
// technique: RunSource over the machine as a fixed batch.
func RunMachine[S any](c *memsim.Core, m exec.Machine[S], tech Technique, p Params) core.RunStats {
	return RunSource[S](c, exec.NewMachineSource(m), tech, p.Options())
}

// RunSource drives the technique's engine over one source on one core until
// the source is exhausted. It is the one place that maps a technique to its
// engine. opts.Width is the in-flight window of every prefetching technique
// (zero selects DefaultWindow) and opts.Trace the optional trace sink; the
// remaining options are AMAC's alone — GP and SPP bake their group size and
// pipeline depth into their control flow. AMAC returns its scheduler stats;
// the other engines report everything through the source.
func RunSource[S any](c *memsim.Core, src exec.Source[S], tech Technique, opts core.Options) core.RunStats {
	window := opts.Width
	if window <= 0 {
		window = DefaultWindow
	}
	switch tech {
	case Baseline:
		exec.BaselineStream(c, src, opts.Trace)
	case GP:
		exec.GroupPrefetchStream(c, src, window, opts.Trace)
	case SPP:
		exec.SoftwarePipelineStream(c, src, window, opts.Trace)
	case AMAC:
		return core.RunStream(c, src, opts)
	default:
		panic(fmt.Sprintf("ops: unknown technique %d", int(tech)))
	}
	return core.RunStats{}
}
