package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
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

// multicastScenarios is the second frozen leg: MultiCast, the algorithm
// every registry campaign runs, at perfbench sweep-short's cell shape
// (n = 64, T = 2000) under one oblivious and one reactive Eve. The
// reactive Eve puts the event engine on its per-slot stepSlot path and
// the oblivious one on its lean step. Frozen like benchScenario.
func multicastScenarios() []multicast.Config {
	var cfgs []multicast.Config
	for _, adv := range []multicast.Adversary{
		multicast.RandomFractionJammer(0.5),
		multicast.ReactiveJammer(0.5),
	} {
		cfgs = append(cfgs, multicast.Config{
			N:         64,
			Algorithm: multicast.AlgoMultiCast,
			Adversary: adv,
			Budget:    2000,
		})
	}
	return cfgs
}

// benchLeg is one frozen scenario the benchmark and the gate time: a
// round runs trials trials of every config on each engine, chunk
// trials at a time.
type benchLeg struct {
	name        string
	configs     []multicast.Config
	trials      uint64 // per config, full scale
	quickTrials uint64 // per config, -quick
	chunk       uint64 // trials per timed run
}

// benchLegs lists the legs in report order. Trial counts are sized so
// a full round times each engine over 0.1–0.6 s; quick mode trims them
// to a smoke test whose ratio the committed quick baseline matches.
func benchLegs() []benchLeg {
	return []benchLeg{
		{name: "multicastcore", configs: []multicast.Config{benchScenario()}, trials: 25, quickTrials: 3, chunk: 1},
		{name: "multicast", configs: multicastScenarios(), trials: 200, quickTrials: 24, chunk: 4},
	}
}

// scenario describes the leg for the report.
func (l benchLeg) scenario(trials uint64) map[string]any {
	cfg := l.configs[0]
	sc := map[string]any{
		"algorithm": string(cfg.Algorithm),
		"n":         cfg.N,
		"budget":    cfg.Budget,
		"trials":    trials,
	}
	if cfg.Algorithm == multicast.AlgoMultiCastCore {
		sc["coreP"] = cfg.Params.CoreP
	}
	if len(l.configs) == 1 {
		sc["adversary"] = cfg.Adversary.Name()
		return sc
	}
	var advs []string
	for _, c := range l.configs {
		advs = append(advs, c.Adversary.Name())
	}
	sc["adversaries"] = advs
	return sc
}

// Rounds per measurement. A leg's ratio is the median of its rounds'
// ratios, so one slow stretch on a shared host moves one round, not the
// result. The quick baseline is the median of more rounds, because it
// estimates where a quick check's median sits.
const (
	benchRounds         = 5
	quickBaselineRounds = 15
)

// engineResult is one engine's measurement, totalled over the timed
// rounds.
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

	mallocs uint64
}

// add folds another measurement of the same engine into r.
func (r *engineResult) add(o engineResult) {
	r.Engine = o.Engine
	r.Slots += o.Slots
	r.Seconds += o.Seconds
	r.mallocs += o.mallocs
	r.MaxNodeCost = max(r.MaxNodeCost, o.MaxNodeCost)
	r.EveCost += o.EveCost
	r.TrialsPassed += o.TrialsPassed
	r.SlotsPerSec = float64(r.Slots) / r.Seconds
	r.NsPerSlot = r.Seconds * 1e9 / float64(r.Slots)
	r.AllocsPerSlot = float64(r.mallocs) / float64(r.Slots)
}

// legResult is one leg's section of the report. EventSpeedup is the
// median round ratio at full scale, EventSpeedupQuick at -quick scale;
// -check compares a measurement with the baseline of its own scale.
type legResult struct {
	Scenario          map[string]any `json:"scenario"`
	Rounds            int            `json:"rounds"`
	Dense             engineResult   `json:"dense"`
	Event             engineResult   `json:"event"`
	EventSpeedup      float64        `json:"event_speedup"`
	EventSpeedupQuick float64        `json:"event_speedup_quick,omitempty"`
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

// benchReport is the BENCH_sim.json schema. The MultiCastCore leg's
// fields sit at the top level, where they predate the other legs.
type benchReport struct {
	Benchmark  string `json:"benchmark"`
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	legResult
	MultiCast *legResult        `json:"multicast,omitempty"`
	Cache     *cacheBenchResult `json:"cache,omitempty"`
}

// sections returns the report's leg sections in benchLegs order; a leg
// missing from an older report is nil.
func (r *benchReport) sections() []*legResult {
	return []*legResult{&r.legResult, r.MultiCast}
}

// runEngine executes trials trials of the scenario, seeds seed,
// seed+1, …, serially on one engine so the measurements are comparable
// and unaffected by trial parallelism. It goes through RunTrialsContext
// with a single worker, so one pooled Executor is recycled across the
// trials — the deployment shape every other driver (mcast, the
// campaign shards, the matrix mode) uses. Allocations are metered over
// the whole batch (runtime mallocs, not bytes), so they include the
// pool's set-up and per-trial reset cost; the steady-state alloc-free
// pin is isolated by internal/sim's TestSlotLoopAllocFree. The derived
// rates are left to engineResult.add.
func runEngine(cfg multicast.Config, engine multicast.Engine, seed, trials uint64) (engineResult, error) {
	cfg.Engine = engine
	cfg.Seed = seed
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
	res.mallocs = ms.Mallocs - mallocs
	return res, nil
}

// measureLeg times the leg over rounds rounds after one untimed dense
// warm-up, so one-time costs (page faults, lazy allocations) hit
// neither engine. A round runs every config's trials on both engines a
// chunk at a time, in ABBA order (dense-event, event-dense, …), so a
// host that slows down mid-round slows both engines alike. The round's
// ratio is event ÷ dense slots/s over its totals. Both engines must
// produce identical slot and Eve-energy totals in every round: the
// benchmark doubles as an end-to-end equivalence check on the exact
// workload it times.
func measureLeg(leg benchLeg, trials uint64, rounds int) (legResult, error) {
	res := legResult{Scenario: leg.scenario(trials), Rounds: rounds}
	for _, cfg := range leg.configs {
		if _, err := runEngine(cfg, multicast.EngineDense, 1, trials); err != nil {
			return res, err
		}
	}
	ratios := make([]float64, 0, rounds)
	runs := 0
	for r := 0; r < rounds; r++ {
		var dense, event engineResult
		for _, cfg := range leg.configs {
			for first := uint64(0); first < trials; first += leg.chunk {
				n := min(leg.chunk, trials-first)
				order := []multicast.Engine{multicast.EngineDense, multicast.EngineEvent}
				if runs%2 == 1 {
					order[0], order[1] = order[1], order[0]
				}
				runs++
				for _, engine := range order {
					m, err := runEngine(cfg, engine, 1+first, n)
					if err != nil {
						return res, err
					}
					if engine == multicast.EngineDense {
						dense.add(m)
					} else {
						event.add(m)
					}
				}
			}
		}
		if dense.Slots != event.Slots || dense.EveCost != event.EveCost {
			return res, fmt.Errorf("%s: engine divergence: dense ran %d slots (Eve %d), event %d (Eve %d)",
				leg.name, dense.Slots, dense.EveCost, event.Slots, event.EveCost)
		}
		ratios = append(ratios, event.SlotsPerSec/dense.SlotsPerSec)
		res.Dense.add(dense)
		res.Event.add(event)
	}
	res.EventSpeedup = median(ratios)
	return res, nil
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
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

// runEngineBench measures every leg and writes the JSON report to
// path. A full run records both baselines per leg: the full-scale ratio
// and, from separate quick-scale rounds measured first, the quick one
// that `-check -quick` compares against. A -quick run is the CI smoke:
// it measures the quick scale alone and records it as both.
func runEngineBench(path string, quick bool) error {
	report := benchReport{
		Benchmark:  "sim-engine-comparison",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	legs := benchLegs()
	results := make([]legResult, len(legs))
	for i, leg := range legs {
		qres, err := measureLeg(leg, leg.quickTrials, quickBaselineRounds)
		if err != nil {
			return err
		}
		res := qres
		if !quick {
			if res, err = measureLeg(leg, leg.trials, benchRounds); err != nil {
				return err
			}
		}
		res.EventSpeedupQuick = qres.EventSpeedup
		results[i] = res
		fmt.Printf("engine benchmark [%s]: dense %.0f slots/s, event %.0f slots/s (%.2fx median of %d rounds; quick %.2fx)\n",
			leg.name, res.Dense.SlotsPerSec, res.Event.SlotsPerSec, res.EventSpeedup, res.Rounds, res.EventSpeedupQuick)
	}
	report.legResult, report.MultiCast = results[0], &results[1]
	// The cache leg replays the MultiCastCore leg's trials as cells.
	trials := legs[0].trials
	if quick {
		trials = legs[0].quickTrials
	}
	cacheRes, err := runCacheBench(trials)
	if err != nil {
		return err
	}
	report.Cache = cacheRes
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("cache (%d cells): cold %.3fs, warm replay %.3fs (%.1fx) → %s\n",
		cacheRes.Cells, cacheRes.ColdSeconds, cacheRes.WarmSeconds, cacheRes.ReplaySpeedup, path)
	return nil
}
