package multicast

import "multicast/internal/experiments"

// Experiment is a runnable reproduction experiment (E1–E14); each checks
// one theorem, lemma, or in-text claim of the paper (`mcbench -list`
// names them).
type Experiment = experiments.Experiment

// ExperimentResult is a rendered experiment table.
type ExperimentResult = experiments.Result

// ExperimentConfig controls experiment effort (trials, quick sweeps).
type ExperimentConfig = experiments.RunConfig

// Experiments returns all reproduction experiments in ID order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment (case-insensitive), e.g. "E3".
func ExperimentByID(id string) (Experiment, bool) { return experiments.Get(id) }
