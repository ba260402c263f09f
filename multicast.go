package multicast

import (
	"context"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/runner"
	"multicast/internal/scenario"
	"multicast/internal/sim"
)

// Params are the algorithm constants; see SimParams and PaperParams.
type Params = core.Params

// SimParams returns constants tuned for laptop-scale simulation while
// preserving the paper's asymptotic shapes (the default).
func SimParams() Params { return core.Sim() }

// PaperParams returns the literal pseudocode constants with the given
// MultiCastAdv α ∈ (0, 1/4). Faithful to the figures, but the w.h.p.
// margins make executions enormous; prefer SimParams for experiments.
func PaperParams(alpha float64) Params { return core.Paper(alpha) }

// Metrics summarises one execution; see the field documentation in the
// simulation engine.
type Metrics = sim.Metrics

// InvariantCounts tallies safety-lemma violations (zero in correct runs).
type InvariantCounts = sim.InvariantCounts

// Observer receives per-slot trace callbacks.
type Observer = sim.Observer

// Adversary is a jammer strategy family; see the *Jammer constructors.
type Adversary = adversary.Factory

// Engine selects the slot-loop implementation; see the engine constants.
type Engine = sim.Engine

const (
	// EngineAuto (default) runs the event engine.
	EngineAuto = sim.EngineAuto
	// EngineDense steps every node every slot (reference implementation).
	EngineDense = sim.EngineDense
	// EngineEvent jumps a global event calendar to the next slot in which
	// any node acts, charging Eve for skipped ranges in closed form.
	// Bit-identical to EngineDense for every configuration.
	EngineEvent = sim.EngineEvent
)

// ParseEngine resolves an engine name ("auto", "dense", "event").
func ParseEngine(s string) (Engine, error) { return sim.ParseEngine(s) }

// ErrMaxSlots reports that an execution hit the MaxSlots safety valve.
var ErrMaxSlots = sim.ErrMaxSlots

// AlgorithmKind selects one of the implemented protocols.
type AlgorithmKind string

const (
	// AlgoMultiCastCore is Figure 1: needs n and T, n/2 channels.
	AlgoMultiCastCore AlgorithmKind = "multicastcore"
	// AlgoMultiCast is Figure 2: needs n, n/2 channels (the default).
	AlgoMultiCast AlgorithmKind = "multicast"
	// AlgoMultiCastC is Figure 5: MultiCast on Channels physical channels.
	AlgoMultiCastC AlgorithmKind = "multicast-c"
	// AlgoMultiCastAdv is Figure 4: needs neither n nor T.
	AlgoMultiCastAdv AlgorithmKind = "multicastadv"
	// AlgoMultiCastAdvC is Figure 6: MultiCastAdv cut off at Channels.
	AlgoMultiCastAdvC AlgorithmKind = "multicastadv-c"
	// AlgoSingleChannel is the SPAA 2014 single-channel baseline.
	AlgoSingleChannel AlgorithmKind = "singlechannel"
)

// Algorithms lists every selectable kind. The canonical list lives in
// internal/scenario, which the workload registry shares.
func Algorithms() []AlgorithmKind {
	names := scenario.AlgorithmNames()
	kinds := make([]AlgorithmKind, len(names))
	for i, n := range names {
		kinds[i] = AlgorithmKind(n)
	}
	return kinds
}

// ParseAlgorithm resolves a name (case-insensitive) to an AlgorithmKind.
func ParseAlgorithm(s string) (AlgorithmKind, error) {
	name, err := scenario.NormalizeAlgorithm(s)
	return AlgorithmKind(name), err
}

// Config describes an execution.
type Config struct {
	// N is the number of nodes (a power of two ≥ 2; node 0 is the source).
	N int
	// Algorithm picks the protocol; empty means AlgoMultiCast.
	Algorithm AlgorithmKind
	// Params are the algorithm constants; the zero value means SimParams.
	Params Params
	// KnownT is the T input of MultiCastCore (ignored by the others);
	// the paper sets it to Eve's budget. Defaults to Budget.
	KnownT int64
	// Channels is the physical channel count for the (C) variants.
	Channels int
	// Adversary is Eve's strategy; nil means no jamming.
	Adversary Adversary
	// Budget is Eve's energy budget T.
	Budget int64
	// Seed determines all randomness; same seed ⇒ identical execution.
	Seed uint64
	// MaxSlots aborts runaway executions (0 = engine default).
	MaxSlots int64
	// Observer, if set, receives per-slot callbacks (slows the run).
	Observer Observer
	// Engine selects the slot-loop implementation (default: EngineAuto).
	Engine Engine
}

// workload converts the public Config to the internal workload
// description shared with the scenario registry.
func (cfg Config) workload() scenario.Config {
	return scenario.Config{
		N:         cfg.N,
		Algorithm: string(cfg.Algorithm),
		Params:    cfg.Params,
		KnownT:    cfg.KnownT,
		Channels:  cfg.Channels,
		Adversary: cfg.Adversary,
		Budget:    cfg.Budget,
		Seed:      cfg.Seed,
		MaxSlots:  cfg.MaxSlots,
	}
}

// build resolves the Config into an engine config. Workload resolution
// (algorithm switch, parameter defaults) lives in internal/scenario so
// the public API and the scenario registry cannot drift; only the
// instrumentation knobs (Observer, Engine) are attached here.
func (cfg Config) build() (sim.Config, error) {
	sc, err := cfg.workload().Build()
	if err != nil {
		return sim.Config{}, err
	}
	sc.Observer = cfg.Observer
	sc.Engine = cfg.Engine
	return sc, nil
}

// Run executes one broadcast to completion and returns its metrics.
func Run(cfg Config) (Metrics, error) {
	sc, err := cfg.build()
	if err != nil {
		return Metrics{}, err
	}
	return sim.Run(sc)
}

// Shard names one slice of a trial batch: Index of Count machines
// (the zero value means unsharded). Shard i of k runs exactly the trials
// t ≡ i (mod k); because trial t always uses seed Seed+t, the union of
// any shard partition is bit-identical to the unsharded batch, whatever
// the worker counts or machine boundaries.
type Shard struct {
	Index int
	Count int
}

// TrialPlan describes a batch of trials for RunTrialsContext.
type TrialPlan struct {
	// Trials is the total batch size across all shards; trial t runs
	// with seed Config.Seed + t.
	Trials int
	// Shard selects this machine's slice (zero value: the whole batch).
	Shard Shard
	// Workers caps the trial worker pool; 0 means GOMAXPROCS.
	Workers int
}

// TrialSink consumes one trial's metrics. RunTrialsContext calls it from
// a single goroutine in ascending trial order; returning an error aborts
// the batch.
type TrialSink func(trial int, m Metrics) error

// RunTrialsContext streams the metrics of independently seeded trials
// (seed Seed+t for trial t) to sink in ascending trial order, running up
// to Workers executions in parallel. Cancelling the context interrupts
// in-flight executions and returns promptly; a trial failure or sink
// error likewise aborts the batch without draining the queue (the error
// returned is the first in trial order). Memory is O(workers), so batch
// sizes are bounded by patience, not RAM; shards of one batch run on
// separate machines and their summaries merge exactly (see cmd/mcast
// -shard/-merge).
func RunTrialsContext(ctx context.Context, cfg Config, plan TrialPlan, sink TrialSink) error {
	sc, err := cfg.build()
	if err != nil {
		return err
	}
	return runner.Run(ctx, sc, runner.SweepPlan{
		Trials:  plan.Trials,
		Shard:   runner.Shard(plan.Shard),
		Workers: plan.Workers,
	}, runner.Sink(sink))
}

// RunTrials executes trials independent seeds (Seed, Seed+1, …) in
// parallel and returns per-trial metrics in seed order. It is a buffered
// convenience wrapper over RunTrialsContext; prefer the streaming form
// for large batches.
func RunTrials(cfg Config, trials int) ([]Metrics, error) {
	ms := make([]Metrics, 0, max(trials, 0))
	err := RunTrialsContext(context.Background(), cfg, TrialPlan{Trials: trials},
		func(_ int, m Metrics) error {
			ms = append(ms, m)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return ms, nil
}
