package amac

import (
	"amac/internal/experiments"
	"amac/internal/table"
)

// Experiment identifies one reproducible artifact of the paper's evaluation
// (a figure's data series or a table).
type Experiment = experiments.Descriptor

// ExperimentConfig parameterizes an experiment run (scale, seed, window).
type ExperimentConfig = experiments.Config

// Scale selects experiment dataset sizes.
type Scale = experiments.Scale

// Experiment scales: Tiny for smoke tests, Small for the default
// reproduction, PaperScale for the paper's original tuple counts.
const (
	TinyScale  = experiments.Tiny
	SmallScale = experiments.Small
	PaperScale = experiments.Paper
)

// ResultTable is a named grid of measurements mirroring one paper artifact.
type ResultTable = table.Table

// Experiments returns every registered experiment, sorted by id.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiment regenerates the artifact with the given id ("fig5b",
// "table3", ...). See EXPERIMENTS.md for the per-experiment index.
func RunExperiment(id string, cfg ExperimentConfig) ([]*ResultTable, error) {
	return experiments.Run(id, cfg)
}
