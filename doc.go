// Package multicast is a simulation library for fast, resource-competitive
// broadcast in multi-channel radio networks, reproducing
//
//	Haimin Chen and Chaodong Zheng.
//	"Fast and Resource Competitive Broadcast in Multi-channel Radio
//	Networks". SPAA 2019 (arXiv:1904.06328).
//
// The model (paper §3): a synchronous single-hop radio network of n honest
// nodes and an oblivious jamming adversary, Eve, with an energy budget T.
// Per slot a node may broadcast, listen, or idle on one channel (1 energy
// unit for the first two); Eve may jam any channel set at 1 unit per
// channel·slot. One source must deliver a message m to everyone while
// keeping every node's energy o(T).
//
// The package provides the paper's five algorithms —
//
//	MultiCastCore     knows n and T     Θ̃(T/n) time, Θ̃(T/n) cost     (Fig. 1)
//	MultiCast         knows n           Θ̃(T/n) time, Θ̃(√(T/n)) cost  (Fig. 2)
//	MultiCastAdv      knows nothing     Θ̃(T/n^(1−2α) + n^2α)          (Fig. 4)
//	MultiCastC        C ≤ n/2 channels  Θ̃(T/C) time                   (Fig. 5)
//	MultiCastAdvC     C channels        Θ̃(T/C^(1−2α))                 (Fig. 6)
//
// — plus the single-channel baseline they are compared against (Gilbert et
// al., SPAA 2014 shape), a library of oblivious jammer strategies, a
// deterministic slot-level simulator with energy auditing, and the
// experiment harness that regenerates the reproduction tables (E1–E14).
//
// # Quick start
//
//	m, err := multicast.Run(multicast.Config{
//		N:         256,
//		Algorithm: multicast.AlgoMultiCast,
//		Adversary: multicast.RandomFractionJammer(0.5),
//		Budget:    100_000,
//		Seed:      1,
//	})
//	// m.Slots, m.MaxNodeEnergy, m.EveEnergy, m.Invariants …
//
// Executions are deterministic given (Config, Seed); RunTrials fans seeds
// out over all CPUs, and RunTrialsContext streams metrics (optionally one
// shard of a multi-machine batch) without buffering. README.md tours the
// system, and `mcbench` regenerates the paper-vs-measured tables
// (E1–E14).
//
// # Engine selection
//
// The simulator has two slot-loop implementations, selected by
// Config.Engine:
//
//   - EngineDense steps every non-halted node in every slot — the
//     reference semantics.
//   - EngineEvent exploits the schedules' sparsity: each node
//     pre-computes its next non-idle slot (the protocol.Sleeper
//     contract), the engine keeps a global event calendar of those
//     wakes, and slot ranges in which no node acts are skipped in bulk.
//     Eve is still charged for jamming in skipped ranges — her jam sets
//     are unobservable there, so only their aggregate size matters,
//     which oblivious strategies report via SpendRange. Adaptive jammers
//     and Observers force per-slot stepping (no range skipping), because
//     both observe every slot; nodes without Sleeper wake every slot.
//   - EngineAuto (the default) runs the event engine.
//
// Node randomness is skip-sampled: the protocols' per-slot choices are
// i.i.d. within a step window, so each node draws the geometric gap to
// its next action in closed form (one uniform) instead of flipping one
// coin per slot. Idle slots consume no randomness in either engine, and
// both engines run the same node code, making them bit-identical by
// construction. Consequence: seeded trajectories are NOT comparable with
// releases that used per-slot coins (PR ≤ 1); all distributions are
// unchanged.
//
// The two engines produce bit-identical Metrics for every configuration
// and seed; the equivalence matrix and fuzz tests in internal/sim enforce
// this, and `mcbench -bench-sim BENCH_sim.json` tracks the event/dense
// speedup on two frozen legs: the low-density MultiCastCore scenario
// (about 9×) and MultiCast at n = 64, T = 2000 (about 1.6×).
// `mcbench -matrix` measures the whole
// algorithms × engines × densities grid.
//
// # Trial-layer determinism
//
// Statistical replication has its own bit-identity contract, layered on
// the engines': trial t of a batch always runs with seed Config.Seed+t,
// derived purely from the trial index — never from worker identity,
// scheduling, or shard layout — and streamed sinks receive metrics in
// ascending trial order. Shard i of k (TrialPlan.Shard) runs exactly the
// trials t ≡ i (mod k), so the union of any shard partition is the same
// multiset of executions as the unsharded batch, and shard summaries
// merged from their JSON artifacts (cmd/mcast -summary-out / -merge)
// are bit-identical to the single-machine summary while the batch fits
// the summary accumulators' sample cap (a documented approximation
// beyond it). The first error in trial order aborts a batch: queued
// trials never start and in-flight executions are interrupted, as they
// are on context cancellation.
//
// # Scenarios and sweeps
//
// Workloads worth re-running have names: the scenario registry
// (Scenarios, ScenarioByName) holds parameterized workload generators —
// density spectra, channel and population ladders, the jammer gauntlet,
// the paper's α regimes, the engine benchmark grid — that expand
// (ExpandScenario) into concrete Config points. RunSweepContext executes
// all of a sweep's points in one deterministic campaign by lifting the
// trial-layer contract one level: the (point × trial) grid is flattened
// into a single global index space (cell (p, t) runs with seed
// points[p].Seed + t, exactly as if point p ran alone), and SweepPlan's
// Shard slices that grid across machines, so a sweep sharded k ways and
// merged per point is bit-identical to the unsharded sweep. The
// experiment harness, `mcbench -matrix`, and `mcast -scenario` all
// enumerate through the same registry; `mcast -list-scenarios` prints
// it, and docs/OPERATIONS.md is the cross-machine campaign playbook.
//
// # Campaigns and artifacts
//
// Above the sweep layer sits the campaign layer: one versioned,
// mergeable artifact schema (Summary; single workloads and scenario
// sweeps share it) plus a resumable driver. RunCampaign and
// RunScenarioCampaign split the flattened grid into CampaignPlan.Shards
// shards, compute their cells on one in-process worker pool, checkpoint
// each shard's progress at grid-cell granularity into CampaignPlan.Dir,
// retry a failed attempt from the checkpoints, and merge the shard
// artifacts into the final summary. Each shard's cells fold in grid
// order, so its checkpoint always covers a prefix of its slice, and a
// campaign killed at any instant and re-run with Resume produces a
// summary bit-identical to an uninterrupted run's. ReadSummary,
// MergeSummaries, and MergeSummaryFiles expose the artifact layer
// directly (exact-coverage merge rules: one campaign identity, all k
// distinct shards, full trial coverage, known schema version), so
// library users never shell out to `mcast -merge`.
package multicast
