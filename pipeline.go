package amac

import (
	"amac/internal/bst"
	"amac/internal/ht"
	"amac/internal/ops"
	"amac/internal/pipeline"
)

// This file exports the streaming pipeline layer: multi-operator query plans
// whose stages (hash-join probes, a BST semi-join filter, a group-by sink)
// stream rows to each other through small bounded pipes instead of
// materializing between operators. Each stage runs under its own engine —
// Baseline, GP, SPP or AMAC, static or adaptive — and a downstream stage's
// backpressure propagates upstream through bounded pump leases. The
// cost-seeded mini-planner (PipelineBuilder.Plan) picks a per-stage technique
// and window from a small row sample. See the pipeN experiment and
// examples/pipeline.

// Collector receives operator result rows and charges their stores; Output
// implements it.
type Collector = ops.Collector

// HashTable is the chained hash table the probe operators walk. All
// structures of one pipeline must live in one Arena (arenas share a base
// address, so structures from different arenas would alias in the cache
// model).
type HashTable = ht.Table

// NewHashTable creates an empty chained hash table in the arena with the
// reference bucket sizing for the expected build cardinality. Populate it
// with InsertRaw (uncharged) or a PreludeBuild phase (charged).
func NewHashTable(a *Arena, expectedTuples int) *HashTable {
	nb := expectedTuples / ops.TuplesPerBucket
	if nb < 1 {
		nb = 1
	}
	return ht.New(a, nb)
}

// BST is the binary search tree a BSTFilter stage walks.
type BST = bst.Tree

// NewBST creates an empty tree in the arena; populate it with Insert.
func NewBST(a *Arena) *BST { return bst.New(a) }

// Input is a materialized input relation (sequential scan source of a root
// stage or a prelude build).
type Input = ops.Input

// NewInput materializes a relation into the arena.
func NewInput(a *Arena, rel *Relation) *Input { return ops.NewInput(a, rel) }

// PipelineBuilder declares a streaming plan — ScanProbe root, then any mix of
// Probe and BSTFilter stages, optionally an Aggregate sink — and assembles
// runnable Pipeline instances from it. Pipelines are single-use; the builder
// is reused so rebuilds keep the identical simulated address layout.
type PipelineBuilder = pipeline.Builder

// NewPipeline starts an empty plan over the given arena.
func NewPipeline(a *Arena) *PipelineBuilder { return pipeline.NewBuilder(a) }

// StageConfig selects one stage's engine: the technique and its in-flight
// window (GP/SPP group size or AMAC starting width; zero = engine default).
type StageConfig = pipeline.StageConfig

// The key selectors: which field of the upstream row a downstream stage
// looks up.
const (
	// SelKey probes with the upstream row's join key.
	SelKey = pipeline.SelKey
	// SelBuildPayload probes with the matched build-side payload — the
	// foreign-key chain of a multi-way join.
	SelBuildPayload = pipeline.SelBuildPayload
	// SelProbePayload probes with the probe-side payload carried unchanged
	// from the root relation — an attribute of the original row.
	SelProbePayload = pipeline.SelProbePayload
)

// Pipeline is one assembled, single-use plan execution: Run it with a static
// per-stage assignment or RunAdaptive with one AdaptiveController per stage.
type Pipeline = pipeline.Pipeline

// PipelineResult reports a pipeline run, one report per stage: engine in
// force, rows in and out, AMAC scheduler stats.
type PipelineResult = pipeline.Result

// PlanChoice is the mini-planner's output: one engine assignment per stage
// plus what the planning itself cost in simulated cycles.
type PlanChoice = pipeline.PlanChoice
