// Package experiments regenerates every table and figure of the AMAC
// paper's evaluation (plus the motivation experiments of Section 2 and a set
// of ablations suggested by Section 6) on top of the simulated memory
// hierarchy. Each experiment is registered under the identifier used in
// DESIGN.md and EXPERIMENTS.md and returns one or more table.Tables whose
// rows and columns mirror the paper's artifact.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"amac/internal/obs"
	"amac/internal/table"
)

// Scale selects the dataset sizes. The paper uses 2^27-tuple relations
// (2 GB); the default reproduction scale keeps the decisive property — the
// "large" working sets overflow the simulated LLC while the "small" build
// table fits in it — at a fraction of the simulation time.
type Scale string

const (
	// Tiny is for smoke tests and CI: everything fits in the caches, so
	// only functional behaviour (not the performance shapes) is meaningful.
	Tiny Scale = "tiny"
	// Small is the default reporting scale (about 1M-tuple relations).
	Small Scale = "small"
	// Paper uses the paper's original tuple counts; runs take a long time
	// and tens of gigabytes of memory.
	Paper Scale = "paper"
)

// ParseScale validates a scale name.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case Tiny, Small, Paper:
		return Scale(s), nil
	default:
		return Small, fmt.Errorf("experiments: unknown scale %q (want tiny, small or paper)", s)
	}
}

// Config parameterizes an experiment run.
type Config struct {
	// Scale selects dataset sizes; the zero value means Small.
	Scale Scale
	// Seed makes workload generation deterministic.
	Seed uint64
	// Window overrides the number of in-flight lookups for all prefetching
	// techniques (zero keeps each experiment's default of 10).
	Window int
	// Workers caps the worker sweep of the parallel scalability experiments
	// (scaleN): zero keeps the default sweep {1, 2, 4, 8, 16}; a positive
	// value sweeps the powers of two up to it, plus the value itself. The
	// serving experiments use it as the worker count (zero = 1 for serveN
	// and adaptN, 4 for faultN).
	Workers int
	// Arrivals selects the serving experiments' traffic shape:
	// "deterministic", "poisson" (the default for empty) or "bursty".
	Arrivals string
	// QueueCap bounds the serving experiments' per-worker admission queue
	// and switches it to the drop policy; zero keeps an unbounded blocking
	// queue.
	QueueCap int
	// Parallel is the number of host workers independent sweep points fan
	// out over: zero uses every host core (GOMAXPROCS), one forces the
	// serial path. Results are identical for every value — each worker
	// deterministically materializes its own workload copies and results
	// are collected in submission order — so the knob trades host memory
	// (one workload image per busy worker) for wall clock only.
	Parallel int
	// Plans filters the pipeline experiment (pipeN) to the plans whose names
	// contain any of the comma-separated, case-insensitive tokens; empty
	// runs every plan. Validate with ValidatePipePlans.
	Plans string
	// Faults overrides the fault experiment's chaos schedule: a scripted
	// episode list ("kind:shard@start+dur[xfactor]", comma-separated) or a
	// seeded random request ("rand:SEED[:N]"); empty keeps faultN's default
	// scenario (shard 0 at 4x memory latency for the middle half of the run).
	Faults string
	// Deadline overrides the fault experiment's per-request cycle budget;
	// zero derives it from the clean run's p99.
	Deadline int
	// SLOBudget sets the fault experiment's p99 SLO budget in cycles and
	// enables its brownout row; zero omits the row.
	SLOBudget int
	// Sinks, if any is set, records the one designated cell of each
	// experiment whose Descriptor.Uses declares that sink: serveN's AMAC
	// cell at 90% load, adaptN's adaptive serving cell at 90% load, faultN's
	// breaker row, pipeN's planner-assigned mixed plan, obsN's replay and
	// profN's batch and serving phases. One cell keeps every export
	// deterministic regardless of -parallel. Purely observational: every
	// table is byte-identical with or without sinks.
	Sinks obs.Sinks
}

func (c Config) scale() Scale {
	if c.Scale == "" {
		return Small
	}
	return c.Scale
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 42
	}
	return c.Seed
}

func (c Config) window() int {
	if c.Window <= 0 {
		return 10
	}
	return c.Window
}

// parallelism resolves the sweep worker count (see Config.Parallel).
func (c Config) parallelism() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// workerCounts returns the worker sweep for the parallel scalability
// experiments.
func (c Config) workerCounts() []int {
	if c.Workers <= 0 {
		return []int{1, 2, 4, 8, 16}
	}
	var counts []int
	for w := 1; w < c.Workers; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, c.Workers)
}

// sizes holds every scale-dependent knob.
type sizes struct {
	joinLarge   int // |R| = |S| for the "large" (2 GB ⋈ 2 GB) join
	joinSmall   int // |R| for the "small" (2 MB ⋈ 2 GB) join
	gbLarge     int
	gbSmall     int
	gbRepeats   int
	bstSizes    []int // log2 tree sizes for Figure 10
	slSizes     []int // log2 skip list sizes for Figure 11
	bstT4       int   // log2 tree size for Figure 13
	slT4        int   // log2 skip list size for Figure 13
	xeonThreads []int
	t4Threads   []int
	windows     []int // in-flight sweep for Figure 6

	// adaptN knobs: the cache-resident dimension-table build size, the
	// cache-resident BST of the operator-mix workload (log2), and the
	// adaptive controller's segment/probe lengths (scaled so that probe
	// epochs stay a small fraction of the run at every scale).
	adaptDim     int
	adaptBST     int
	adaptSegment int
	adaptProbe   int

	// pipeN knobs: root probe rows per plan, the DRAM-resident build-table
	// size, the cache-resident dimension table of the mixed chain plan, the
	// BST of the probe→filter plan, the aggregation group count, and the
	// mini-planner's root sample size (whose first half warms, second half
	// measures — it must cover the dimension table about twice over).
	pipeRows   int
	pipeBuild  int
	pipeDim    int
	pipeBST    int
	pipeGroups int
	pipeSample int
}

func (c Config) sizes() sizes {
	switch c.scale() {
	case Tiny:
		return sizes{
			joinLarge: 1 << 13, joinSmall: 1 << 10,
			gbLarge: 1 << 12, gbSmall: 1 << 10, gbRepeats: 3,
			bstSizes: []int{10, 12}, slSizes: []int{9, 11},
			bstT4: 12, slT4: 11,
			xeonThreads: []int{1, 2, 4, 6, 8, 12},
			t4Threads:   []int{1, 8, 16, 64},
			windows:     []int{1, 5, 10, 15},
			adaptDim:    1 << 8, adaptBST: 8, adaptSegment: 256, adaptProbe: 64,
			pipeRows: 1 << 12, pipeBuild: 1 << 12, pipeDim: 1 << 7, pipeBST: 1 << 9, pipeGroups: 128, pipeSample: 256,
		}
	case Paper:
		return sizes{
			joinLarge: 1 << 27, joinSmall: 1 << 17,
			gbLarge: 1 << 27, gbSmall: 1 << 17, gbRepeats: 3,
			bstSizes: []int{15, 18, 21, 24, 26, 27}, slSizes: []int{15, 21, 25},
			bstT4: 25, slT4: 25,
			xeonThreads: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
			t4Threads:   []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64},
			windows:     []int{1, 5, 10, 15},
			adaptDim:    1 << 12, adaptBST: 12, adaptSegment: 4096, adaptProbe: 512,
			pipeRows: 1 << 18, pipeBuild: 1 << 20, pipeDim: 1 << 10, pipeBST: 1 << 12, pipeGroups: 4096, pipeSample: 4096,
		}
	default: // Small
		return sizes{
			joinLarge: 1 << 20, joinSmall: 1 << 17,
			gbLarge: 1 << 20, gbSmall: 1 << 17, gbRepeats: 3,
			bstSizes: []int{14, 16, 18, 20}, slSizes: []int{14, 16, 18},
			bstT4: 18, slT4: 17,
			xeonThreads: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
			t4Threads:   []int{1, 2, 4, 8, 16, 24, 32, 48, 64},
			windows:     []int{1, 5, 10, 15},
			adaptDim:    1 << 12, adaptBST: 12, adaptSegment: 2048, adaptProbe: 256,
			pipeRows: 1 << 16, pipeBuild: 1 << 16, pipeDim: 1 << 9, pipeBST: 1 << 11, pipeGroups: 1024, pipeSample: 2048,
		}
	}
}

// Descriptor registers one reproducible artifact.
type Descriptor struct {
	// ID is the identifier used across DESIGN.md, EXPERIMENTS.md, the CLI
	// and the benchmarks ("fig5a", "table3", ...).
	ID string
	// Title summarises what the paper artifact shows.
	Title string
	// Run regenerates the artifact.
	Run func(Config) []*table.Table
	// Uses declares the Config knobs and sinks the experiment reads. It is
	// the one record of which command-line flags apply to which
	// experiment.
	Uses Uses
}

// Uses is a set of the experiment-specific Config knobs and sinks an
// experiment reads. The common knobs (scale, seed, window, parallel) have
// no bit.
type Uses uint8

const (
	// UsesServing: Arrivals and QueueCap shape the experiment's traffic.
	UsesServing Uses = 1 << iota
	// UsesPipeline: Plans filters its pipelines.
	UsesPipeline
	// UsesFaults: Faults, Deadline and SLOBudget shape its chaos runs.
	UsesFaults
	// UsesTrace: its designated cell records into Sinks.Trace.
	UsesTrace
	// UsesMetrics: its designated cell samples into Sinks.Metrics.
	UsesMetrics
	// UsesProfile: its designated cell attributes into Sinks.Profile.
	UsesProfile
	// UsesWorkers: Workers sets its worker sweep or worker count.
	UsesWorkers
)

// UsesSinks is every sink bit.
const UsesSinks = UsesTrace | UsesMetrics | UsesProfile

// usesNames names the Uses bits in bit order.
var usesNames = [...]string{"serving", "pipeline", "fault", "trace", "metrics", "profile", "workers"}

// String names the set's bits joined by "+", e.g. "trace+metrics".
func (u Uses) String() string {
	var names []string
	for i, n := range usesNames {
		if u&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, "+")
}

// Using returns the ids of the registered experiments whose Uses has any bit
// of u, sorted.
func Using(u Uses) []string {
	var ids []string
	for _, d := range Registry() {
		if d.Uses&u != 0 {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// registry is populated by the experiment files' init order via Register.
var registry []Descriptor

func register(d Descriptor) { registry = append(registry, d) }

// Registry returns every registered experiment sorted by ID.
func Registry() []Descriptor {
	out := append([]Descriptor(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find locates an experiment by ID.
func Find(id string) (Descriptor, bool) {
	for _, d := range registry {
		if d.ID == id {
			return d, true
		}
	}
	return Descriptor{}, false
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) ([]*table.Table, error) {
	d, ok := Find(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return d.Run(cfg), nil
}
