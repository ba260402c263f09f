package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"multicast"
)

// benchScenario is the fixed engine benchmark: MultiCastCore with the
// paper's own listen probability 1/64 on 128 nodes — a low-density
// workload in which ~4 of 128 nodes act per slot, the regime the event
// engine exists for — under a half-spectrum block jammer. Changing this
// scenario breaks the perf trajectory across PRs; add new scenarios
// instead of editing this one.
func benchScenario() multicast.Config {
	params := multicast.SimParams()
	params.CoreP = 1.0 / 64 // the paper's coin ← rnd(1,64)
	params.CoreA = 640      // keep R·CoreP (and so the halt threshold) at the Sim() scale
	return multicast.Config{
		N:         128,
		Algorithm: multicast.AlgoMultiCastCore,
		Params:    params,
		Adversary: multicast.FractionJammer(0.5),
		Budget:    200_000,
	}
}

// benchTrials is sized so each engine measures over ≥ 1s of work; short
// windows made the reported ratio noisy. Quick mode (-quick) trims it to
// a smoke test: CI uses it to prove the benchmark plumbing still runs
// and the engines still agree, not to measure a trustworthy ratio.
const (
	benchTrials      = 25
	benchTrialsQuick = 3
)

// engineResult is one engine's measurement.
type engineResult struct {
	Engine        string  `json:"engine"`
	Slots         int64   `json:"slots"`
	Seconds       float64 `json:"seconds"`
	SlotsPerSec   float64 `json:"slots_per_sec"`
	NsPerSlot     float64 `json:"ns_per_slot"`
	AllocsPerSlot float64 `json:"allocs_per_slot"`
	MaxNodeCost   int64   `json:"max_node_energy"`
	EveCost       int64   `json:"eve_energy"`
	TrialsPassed  int     `json:"trials"`
}

// cacheBenchResult is the cold-vs-warm leg of the result cache: the
// same driven campaign timed while simulating every cell (cold, filling
// the cache) and while replaying every cell from it (warm).
type cacheBenchResult struct {
	Cells         int     `json:"cells"`
	ColdSeconds   float64 `json:"cold_seconds"`
	WarmSeconds   float64 `json:"warm_seconds"`
	ReplaySpeedup float64 `json:"replay_speedup"`
}

// benchReport is the BENCH_sim.json schema.
type benchReport struct {
	Benchmark    string            `json:"benchmark"`
	Generated    string            `json:"generated"`
	GoVersion    string            `json:"go_version"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	Scenario     map[string]any    `json:"scenario"`
	Dense        engineResult      `json:"dense"`
	Event        engineResult      `json:"event"`
	EventSpeedup float64           `json:"event_speedup"`
	Cache        *cacheBenchResult `json:"cache,omitempty"`
}

// runEngine executes the scenario's trials serially on one engine so the
// measurements are comparable and unaffected by trial parallelism. It
// goes through RunTrialsContext with a single worker, so one pooled
// Executor is recycled across the trials — the deployment shape every
// other driver (mcast, the campaign shards, the matrix mode) uses — and
// the seeds are Seed+t = 1..trials, the same set the old per-Run loop
// measured. Allocations are metered over the whole batch (runtime
// mallocs, not bytes), so the reported allocs/slot includes the pool's
// amortised per-trial reset cost; the steady-state alloc-free pin is
// isolated by internal/sim's TestSlotLoopAllocFree.
func runEngine(cfg multicast.Config, engine multicast.Engine, trials uint64) (engineResult, error) {
	cfg.Engine = engine
	cfg.Seed = 1
	res := engineResult{Engine: engine.String()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	err := multicast.RunTrialsContext(context.Background(), cfg,
		multicast.TrialPlan{Trials: int(trials), Workers: 1},
		func(_ int, m multicast.Metrics) error {
			res.Slots += m.Slots
			if m.MaxNodeEnergy > res.MaxNodeCost {
				res.MaxNodeCost = m.MaxNodeEnergy
			}
			res.EveCost += m.EveEnergy
			res.TrialsPassed++
			return nil
		})
	if err != nil {
		return res, fmt.Errorf("engine %v: %w", engine, err)
	}
	res.Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	res.SlotsPerSec = float64(res.Slots) / res.Seconds
	res.NsPerSlot = res.Seconds * 1e9 / float64(res.Slots)
	res.AllocsPerSlot = float64(ms.Mallocs-mallocs) / float64(res.Slots)
	return res, nil
}

// runCacheBench times the fixed scenario as a driven campaign twice
// over one result cache: cold (every cell simulated and stored) and
// warm, into a fresh campaign directory (every cell replayed). The
// ratio is the cache's replay speedup. Any warm miss means the cache
// plumbing is broken, so it is a hard error, not a smaller number.
func runCacheBench(trials uint64) (*cacheBenchResult, error) {
	cfg := benchScenario()
	cfg.Seed = 1
	cacheDir, err := os.MkdirTemp("", "mcbench-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)
	run := func() (secs float64, misses int64, err error) {
		dir, err := os.MkdirTemp("", "mcbench-campaign-")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		_, err = multicast.RunCampaign(context.Background(), cfg, multicast.CampaignPlan{
			Trials: int(trials), Shards: 1, Workers: 1, Dir: dir, CacheDir: cacheDir,
			Progress: func(ev multicast.CampaignEvent) {
				if ev.Kind == multicast.CampaignShardCell && ev.Cache == multicast.CampaignCellCacheMiss {
					misses++
				}
			},
		})
		return time.Since(start).Seconds(), misses, err
	}
	cold, misses, err := run()
	if err != nil {
		return nil, err
	}
	if misses != int64(trials) {
		return nil, fmt.Errorf("cache benchmark: cold run missed %d of %d cells — the cache was not empty", misses, trials)
	}
	warm, misses, err := run()
	if err != nil {
		return nil, err
	}
	if misses != 0 {
		return nil, fmt.Errorf("cache benchmark: warm run re-simulated %d of %d cells", misses, trials)
	}
	return &cacheBenchResult{
		Cells:         int(trials),
		ColdSeconds:   cold,
		WarmSeconds:   warm,
		ReplaySpeedup: cold / warm,
	}, nil
}

// runEngineBench measures dense vs event slots/sec on the fixed
// scenario and writes the JSON report to path. Both engines must produce
// identical slot and Eve-energy totals — the benchmark doubles as an
// end-to-end equivalence check on the exact workload it times.
func runEngineBench(path string, quick bool) error {
	trials := uint64(benchTrials)
	if quick {
		trials = benchTrialsQuick
	}
	scenario := benchScenario()
	// Warm-up pass so one-time costs (page faults, lazy allocations) hit
	// neither engine's measurement.
	if _, err := runEngine(scenario, multicast.EngineDense, trials); err != nil {
		return err
	}
	dense, err := runEngine(scenario, multicast.EngineDense, trials)
	if err != nil {
		return err
	}
	event, err := runEngine(scenario, multicast.EngineEvent, trials)
	if err != nil {
		return err
	}
	if dense.Slots != event.Slots || dense.EveCost != event.EveCost {
		return fmt.Errorf("engine divergence: dense ran %d slots (Eve %d), event %d (Eve %d)",
			dense.Slots, dense.EveCost, event.Slots, event.EveCost)
	}
	cacheRes, err := runCacheBench(trials)
	if err != nil {
		return err
	}
	report := benchReport{
		Benchmark:  "sim-engine-comparison",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scenario: map[string]any{
			"algorithm": string(scenario.Algorithm),
			"n":         scenario.N,
			"coreP":     1.0 / 64,
			"budget":    scenario.Budget,
			"adversary": scenario.Adversary.Name(),
			"trials":    trials,
		},
		Dense:        dense,
		Event:        event,
		EventSpeedup: event.SlotsPerSec / dense.SlotsPerSec,
		Cache:        cacheRes,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("engine benchmark: dense %.0f slots/s, event %.0f slots/s (%.2fx) → %s\n",
		dense.SlotsPerSec, event.SlotsPerSec, report.EventSpeedup, path)
	fmt.Printf("cache (%d cells): cold %.3fs, warm replay %.3fs (%.1fx)\n",
		cacheRes.Cells, cacheRes.ColdSeconds, cacheRes.WarmSeconds, cacheRes.ReplaySpeedup)
	return nil
}
