package multicast

import (
	"context"
	"fmt"

	"multicast/internal/cache"
	"multicast/internal/campaign"
	"multicast/internal/chaos"
	"multicast/internal/driver"
	"multicast/internal/sim"
)

// Summary is the versioned, mergeable campaign artifact (schema-version
// checked on read; see internal/campaign for the format). One schema
// covers both campaign shapes: a scenario sweep carries its scenario
// name and one point per sweep point; a single-workload campaign has an
// empty scenario name and exactly one point. Merge rules refuse mixed
// campaigns, missing or duplicate shards, and unknown schema versions.
type Summary = campaign.Summary

// SummaryPoint is one workload point's slice of a Summary.
type SummaryPoint = campaign.Point

// SummarySchemaVersion is the artifact schema this library reads and
// writes; files with any other schema_version are refused by name.
const SummarySchemaVersion = campaign.SchemaVersion

// CampaignEvent is one per-shard progress notification from a driven
// campaign. Events are delivered serially but interleave across shards.
type CampaignEvent = driver.Event

// Campaign progress event kinds (CampaignEvent.Kind).
const (
	// CampaignShardStart: a shard worker attempt begins (Done cells
	// already checkpointed when resuming).
	CampaignShardStart = driver.EventStart
	// CampaignShardCell: a shard worker completed and checkpointed one
	// grid cell.
	CampaignShardCell = driver.EventCell
	// CampaignShardDone: a shard's artifact is complete on disk.
	CampaignShardDone = driver.EventShardDone
	// CampaignShardRetry: a shard attempt failed and will be retried,
	// resuming from its checkpoint.
	CampaignShardRetry = driver.EventRetry
	// CampaignShardDiscard: a corrupt or misdelivered shard artifact was
	// deleted and its shard re-runs (Err carries the reason).
	CampaignShardDiscard = driver.EventDiscard
)

// CampaignEvent.Cache values on CampaignShardCell events of a campaign
// running with CampaignPlan.CacheDir (empty otherwise).
const (
	// CampaignCellCacheHit: the cell's result was replayed from the cache.
	CampaignCellCacheHit = driver.CacheHit
	// CampaignCellCacheMiss: the cell was simulated (and its result stored).
	CampaignCellCacheMiss = driver.CacheMiss
)

// CampaignSchedule picks how a driven campaign's grid cells are
// distributed over workers; checkpoints are schedule-agnostic, so a
// campaign killed under one schedule resumes exactly under the other.
type CampaignSchedule = driver.Schedule

const (
	// CampaignScheduleStatic (the default, also the zero value) pins
	// shard i to the cells g ≡ i (mod k), one worker pool per shard.
	CampaignScheduleStatic = driver.ScheduleStatic
	// CampaignScheduleSteal runs one work-stealing pool over the whole
	// grid: workers claim contiguous cell ranges and re-split the largest
	// remaining range when one goes idle, so heterogeneous workers finish
	// together. Results land in ascending grid order per shard, so the
	// merged summary stays bit-identical to the static run's.
	CampaignScheduleSteal = driver.ScheduleSteal
)

// ParseCampaignSchedule resolves a schedule name ("static", "steal";
// empty means static) — the -drive-schedule CLI grammar.
func ParseCampaignSchedule(s string) (CampaignSchedule, error) { return driver.ParseSchedule(s) }

// ErrCorruptArtifact marks a campaign artifact whose bytes cannot be
// trusted (truncated mid-JSON, failing its content checksum); test with
// errors.Is. ErrCorruptCheckpoint is its sibling for checkpoint
// sidecars — that one is terminal on resume (see docs/OPERATIONS.md).
var (
	ErrCorruptArtifact   = campaign.ErrCorruptArtifact
	ErrCorruptCheckpoint = campaign.ErrCorruptCheckpoint
)

// Chaos harness aliases: a ChaosPlan is a seeded fault schedule played
// into a driven campaign by a ChaosInjector, every injection emitted as
// a canonical ChaosEvent (see internal/chaos).
type (
	// ChaosPlan is a seeded, deterministic fault schedule.
	ChaosPlan = chaos.Plan
	// ChaosRule schedules one fault (see ParseChaosRules for the CLI
	// grammar and the unset-value conventions).
	ChaosRule = chaos.Rule
	// ChaosEvent is one injected fault in the canonical, diffable log.
	ChaosEvent = chaos.Event
	// ChaosInjector plays one plan into one driven campaign.
	ChaosInjector = chaos.Injector
)

// NewChaosInjector validates a fault schedule and returns its injector;
// set it as CampaignPlan.Chaos. Create a fresh injector per campaign
// run — rules fire at most once per injector.
func NewChaosInjector(p ChaosPlan) (*ChaosInjector, error) { return chaos.New(p) }

// ParseChaosRules parses the -chaos-faults grammar
// (kind[@shard[:cell[:attempt]]], comma-separated; "*" = seeded
// choice) into fault rules.
func ParseChaosRules(s string) ([]ChaosRule, error) { return chaos.ParseRules(s) }

// CampaignPlan describes a driven campaign: the whole (point × trial)
// grid split into Shards shard workers that run concurrently, each
// checkpointing its progress at grid-cell granularity into Dir, with
// failed shards retried (resuming at their next undone cell) up to
// Retries times. The merged result is bit-identical to the unsharded
// run's summary — shard count, worker counts, and interruptions never
// change results, only who computes which cell when.
type CampaignPlan struct {
	// Trials is the trial count per point; trial t of point p runs with
	// the point's seed + t (the runner's determinism contract).
	Trials int
	// Shards is k: shard i owns the grid cells g ≡ i (mod k). Zero
	// means 1.
	Shards int
	// Schedule picks who computes those cells: CampaignScheduleStatic
	// (default) runs each shard on its own worker pool;
	// CampaignScheduleSteal runs one work-stealing pool over the whole
	// grid. Artifacts are bit-identical either way.
	Schedule CampaignSchedule
	// Workers caps each shard worker's trial pool; 0 divides GOMAXPROCS
	// evenly across shards.
	Workers int
	// Retries is how many times a failed shard is relaunched (resuming
	// from its checkpoint) before the campaign fails; 0 fails on the
	// first error.
	Retries int
	// Dir is the campaign directory holding shard artifacts and
	// checkpoints — the resume state. Required.
	Dir string
	// Resume continues a previously interrupted campaign in Dir:
	// complete shard artifacts are kept, checkpointed shards resume at
	// their next undone cell, and the final merge is unchanged. Without
	// Resume, a Dir already holding campaign files is refused.
	Resume bool
	// CheckpointEvery is the number of grid cells between checkpoint
	// flushes; 0 or 1 checkpoints after every cell.
	CheckpointEvery int
	// Engine selects the slot-loop engine for the expanded points of
	// RunScenarioCampaign (identical results, like Workers). RunCampaign
	// ignores it — Config.Engine governs there.
	Engine Engine
	// CacheDir, if non-empty, roots a content-addressed cell result
	// cache there (created if needed): every grid cell is looked up by
	// the sha256 of its identity (point workload, label, cell seed,
	// schema versions) before it is simulated, hits replay the stored
	// metrics, and misses store theirs back. Artifacts and the merged
	// summary are byte-identical with or without a cache — a damaged
	// entry reads as a miss, never as data — so overlapping campaigns
	// (re-runs, widened sweeps, added trials) only ever simulate new
	// cells. Discard the directory when SummarySchemaVersion bumps.
	CacheDir string
	// Progress, if non-nil, receives per-shard events. With CacheDir
	// set, CampaignShardCell events carry Cache = "hit" | "miss".
	Progress func(CampaignEvent)
	// Chaos, if non-nil, injects the given seeded fault schedule into
	// the run (tests and drills only). Implies keep-going supervision:
	// healthy shards finish even when a sibling fails, so the schedule
	// plays out deterministically.
	Chaos *ChaosInjector
}

func (p CampaignPlan) driverOptions() (driver.Options, error) {
	o := driver.Options{
		Shards:          max(p.Shards, 1),
		Schedule:        p.Schedule,
		Workers:         p.Workers,
		Retries:         p.Retries,
		Dir:             p.Dir,
		Resume:          p.Resume,
		CheckpointEvery: p.CheckpointEvery,
		Progress:        p.Progress,
	}
	if p.CacheDir != "" {
		store, err := cache.Open(p.CacheDir)
		if err != nil {
			return driver.Options{}, err
		}
		o.Cache = store
	}
	if p.Chaos != nil {
		o.Chaos = p.Chaos.Hooks()
	}
	return o, nil
}

// closeCache releases the segment handles of the store driverOptions
// opened once the campaign's run has returned; a nil store (no
// CacheDir) has none. Closing a read-only handle cannot lose data, so
// its error is dropped.
func closeCache(store *cache.Store) {
	if store != nil {
		_ = store.Close()
	}
}

// RunCampaign drives a single-workload campaign: Trials independently
// seeded executions of cfg, sharded over CampaignPlan.Shards concurrent
// workers with per-shard checkpointing, gathered and merged into the
// final summary. It is the in-process equivalent of launching k
// `mcast -shard i/k` runs and merging their artifacts — without
// shelling out, and with crash recovery: cancel or kill it mid-run and
// a second call with Resume set finishes from the checkpoints,
// producing a summary bit-identical to an uninterrupted run's.
func RunCampaign(ctx context.Context, cfg Config, plan CampaignPlan) (*Summary, error) {
	sc, err := cfg.build()
	if err != nil {
		return nil, err
	}
	tmpl := NewSummary(cfg, plan.Trials)
	opts, err := plan.driverOptions()
	if err != nil {
		return nil, err
	}
	defer closeCache(opts.Cache)
	return driver.Run(ctx, driver.Spec{
		Template: tmpl,
		Points:   []sim.Config{sc},
		Trials:   plan.Trials,
	}, opts)
}

// RunScenarioCampaign drives a scenario sweep as one campaign: the
// scenario expands under opts exactly as RunSweepContext would run it,
// and the flattened (point × trial) grid is sharded, checkpointed,
// retried, and merged like RunCampaign. The merged per-point summaries
// are bit-identical to the unsharded sweep's.
func RunScenarioCampaign(ctx context.Context, scen Scenario, opts ScenarioOptions, plan CampaignPlan) (*Summary, error) {
	points := ExpandScenario(scen, opts)
	if len(points) == 0 {
		return nil, fmt.Errorf("multicast: scenario %s expanded to zero points", scen.Name)
	}
	sims := make([]sim.Config, len(points))
	for i, p := range points {
		p.Config.Engine = plan.Engine
		sc, err := p.Config.build()
		if err != nil {
			return nil, err
		}
		sims[i] = sc
	}
	tmpl := NewScenarioSummary(scen, opts.Seed, plan.Trials, points)
	dopts, err := plan.driverOptions()
	if err != nil {
		return nil, err
	}
	defer closeCache(dopts.Cache)
	return driver.Run(ctx, driver.Spec{
		Template: tmpl,
		Points:   sims,
		Trials:   plan.Trials,
	}, dopts)
}

// NewSummary returns the empty, unsharded artifact skeleton of a
// single-workload campaign of cfg: the campaign identity every shard
// artifact and checkpoint of that campaign must match. RunCampaign and
// `mcast -summary-out` both build on it, so their artifacts merge.
func NewSummary(cfg Config, trials int) *Summary {
	label := string(cfg.Algorithm)
	if label == "" {
		label = string(AlgoMultiCast)
	}
	return campaign.New("", cfg.Seed, trials, []campaign.Point{
		{Label: label, Workload: cfg.Describe()},
	})
}

// NewScenarioSummary returns the empty, unsharded artifact skeleton of
// a scenario-sweep campaign over the given expanded points (seed is the
// expansion's base seed, ScenarioOptions.Seed).
func NewScenarioSummary(scen Scenario, seed uint64, trials int, points []ScenarioPoint) *Summary {
	meta := make([]campaign.Point, len(points))
	for i, p := range points {
		meta[i] = campaign.Point{Label: p.Label, Workload: p.Config.Describe()}
	}
	return campaign.New(scen.Name, seed, trials, meta)
}

// ReadSummary loads and validates one campaign artifact, refusing
// unknown schema versions by name.
func ReadSummary(path string) (*Summary, error) { return campaign.Read(path) }

// MergeSummaries combines the k shard summaries of one campaign into
// its full summary, enforcing the exact-coverage rules: one campaign
// identity, one k-way split, all k distinct shards present, full trial
// coverage per point. It replaces shelling out to `mcast -merge` for
// library users; the result is bit-identical to the unsharded run's
// summary while per-point trial counts stay within the stats sample
// cap.
func MergeSummaries(sums []*Summary) (*Summary, error) {
	in := make([]campaign.Input, len(sums))
	for i, s := range sums {
		in[i] = campaign.Input{Sum: s}
	}
	return campaign.Merge(in)
}

// MergeSummaryFiles reads the given artifact files and merges them like
// MergeSummaries; error messages name the offending paths.
func MergeSummaryFiles(paths []string) (*Summary, error) { return campaign.MergeFiles(paths) }
