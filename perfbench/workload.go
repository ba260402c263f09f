package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"multicast"
	"multicast/internal/cache"
	"multicast/internal/campaign"
	"multicast/internal/driver"
	"multicast/internal/runner"
	"multicast/internal/scenario"
	"multicast/internal/sim"
)

// scenarioName is the registry scenario every workload sweeps: all ten
// jammer points. Its reactive and camper Eves force the dense engine
// under Auto while the oblivious ones go sparse or event, so one sweep
// exercises every engine.
const scenarioName = "jammer-gauntlet"

// workers is the trial pool of the timed campaigns: one shard, two
// workers, a closed loop in which a worker pulls the next cell as soon
// as it is free.
const workers = 2

// cacheMode is how a workload's campaigns use the cell result cache.
type cacheMode int

const (
	cacheNone cacheMode = iota // no CacheDir
	cacheCold                  // a fresh, empty CacheDir per campaign: every cell is stored
	cacheWarm                  // set-up pre-fills one CacheDir: every cell is a hit
)

// workload is one campaign shape. Each is sized so that a different
// layer bounds cells/s; README.md gives the evidence.
type workload struct {
	name   string
	n      int   // node population (0 = scenario default, 256)
	budget int64 // Eve's budget T (0 = scenario default, 100 000)
	// trials per point. Frozen once chosen: checkpoint flush cost per
	// cell grows with the samples a summary retains, so another count is
	// another workload.
	trials int
	cache  cacheMode
	// flushOnce sets CheckpointEvery to the grid size: one checkpoint
	// flush per campaign instead of one per cell.
	flushOnce bool
}

var workloads = []workload{
	// Engine-bound: scenario defaults, a flush per cell, no cache.
	{name: "sweep-long", trials: 8},
	// Flush-bound: short cells, a flush per cell, every cell also stored.
	{name: "sweep-short", n: 64, budget: 2000, trials: 60, cache: cacheCold},
	// Replay-bound: every cell read from a warm cache, one flush.
	{name: "replay-warm", n: 16, budget: 500, trials: 1000, cache: cacheWarm, flushOnce: true},
}

func lookup(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// bench is one prepared workload: the scenario expanded and built, the
// campaign template, and (replay-warm) the pre-filled cache.
type bench struct {
	w     workload
	work  string // every campaign gets a fresh directory in it
	seq   int
	scen  scenario.Scenario
	opts  scenario.Options
	pts   []sim.Config
	tmpl  *campaign.Summary
	every int // CampaignPlan.CheckpointEvery
	warm  string
}

// prepare resolves the scenario and builds its points and summary
// template — the scenario layer's share of set-up.
func prepare(w workload, seed uint64, work string) (*bench, error) {
	scen, ok := scenario.Get(scenarioName)
	if !ok {
		return nil, fmt.Errorf("scenario %s is not registered", scenarioName)
	}
	b := &bench{w: w, work: work, scen: scen,
		opts: scenario.Options{N: w.n, Budget: w.budget, Seed: seed}}
	raw := scen.Points(b.opts)
	meta := make([]campaign.Point, len(raw))
	b.pts = make([]sim.Config, len(raw))
	for i, p := range raw {
		sc, err := p.Config.Build()
		if err != nil {
			return nil, fmt.Errorf("point %s: %w", p.Label, err)
		}
		b.pts[i] = sc
		meta[i] = campaign.Point{Label: p.Label, Workload: p.Config.Describe()}
	}
	b.tmpl = campaign.New(scen.Name, seed, w.trials, meta)
	if w.flushOnce {
		b.every = b.cells()
	}
	return b, nil
}

// setUp is the whole set-up of a run: prepare; for replay-warm, a cold
// drive that pre-fills the cache; then one untimed warm-up campaign, so
// that the timed ones do not pay the process's first-campaign costs
// (heap growth, page faults). It reports the scenario layer's share.
func setUp(ctx context.Context, w workload, seed uint64, work string) (*bench, time.Duration, error) {
	start := time.Now()
	b, err := prepare(w, seed, work)
	if err != nil {
		return nil, 0, err
	}
	scen := time.Since(start)
	if w.cache == cacheWarm {
		b.warm = b.fresh("cache")
		if _, _, err := b.timed(b.driven(ctx, workers)); err != nil {
			return nil, 0, fmt.Errorf("pre-filling the cache: %w", err)
		}
	}
	if _, _, err := b.timed(b.driven(ctx, workers)); err != nil {
		return nil, 0, fmt.Errorf("warm-up campaign: %w", err)
	}
	return b, scen, nil
}

func (b *bench) cells() int { return len(b.pts) * b.w.trials }

// fresh names a new, unused directory under b.work.
func (b *bench) fresh(kind string) string {
	b.seq++
	return filepath.Join(b.work, fmt.Sprintf("%s-%d", kind, b.seq))
}

// cacheDir returns the CacheDir one campaign runs with.
func (b *bench) cacheDir() string {
	switch b.w.cache {
	case cacheCold:
		return b.fresh("cache")
	case cacheWarm:
		return b.warm
	}
	return ""
}

// campaignFunc runs one campaign with the given campaign and cache
// directories and returns its merged summary.
type campaignFunc func(dir, cacheDir string) (*campaign.Summary, error)

// driven runs campaigns through the operator's path, setting only the
// plan fields an operator must choose; everything else is default.
func (b *bench) driven(ctx context.Context, pool int) campaignFunc {
	return func(dir, cacheDir string) (*campaign.Summary, error) {
		return multicast.RunScenarioCampaign(ctx, b.scen, b.opts, multicast.CampaignPlan{
			Trials:          b.w.trials,
			Shards:          1,
			Workers:         pool,
			Dir:             dir,
			CacheDir:        cacheDir,
			CheckpointEvery: b.every,
		})
	}
}

// composed runs campaigns as the serial composition, traced by a
// non-nil tr.
func (b *bench) composed(tr *tracer) campaignFunc {
	return func(dir, cacheDir string) (*campaign.Summary, error) { return b.compose(dir, cacheDir, tr) }
}

// timed runs one campaign in fresh directories, removes them (except the
// warm cache), and returns the merged summary's digest and the campaign's
// wall time, which excludes writing the merged summary out.
func (b *bench) timed(run campaignFunc) (string, float64, error) {
	dir, cacheDir := b.fresh("campaign"), b.cacheDir()
	defer func() {
		os.RemoveAll(dir)
		if cacheDir != b.warm {
			os.RemoveAll(cacheDir)
		}
	}()
	start := time.Now()
	sum, err := run(dir, cacheDir)
	wall := time.Since(start).Seconds()
	if err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, "merged.json")
	if err := sum.Write(path); err != nil {
		return "", 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	sha := sha256.Sum256(data)
	return hex.EncodeToString(sha[:]), wall, nil
}

// compose runs one campaign by calling each layer's public functions
// serially in grid order — the work driver.Run does for one shard on one
// worker — and returns the merged summary. A non-nil tracer records
// every call as a span.
func (b *bench) compose(dir, cacheDir string, tr *tracer) (*campaign.Summary, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	grid, err := runner.NewGrid(b.pts, b.w.trials)
	if err != nil {
		return nil, err
	}
	var store *cache.Store
	if cacheDir != "" {
		if store, err = cache.Open(cacheDir); err != nil {
			return nil, err
		}
	}
	every := max(b.every, 1)
	// The checkpointer never flushes on its own, so Add is timed alone;
	// Flush is called below at the plan's cadence.
	sidecar := driver.CheckpointPath(dir, 0)
	ck := campaign.NewCheckpointer(sidecar, b.tmpl, math.MaxInt)
	ex := sim.NewExecutor()
	for g := 0; g < grid.Total(); g++ {
		p, t := grid.Split(g)
		var m sim.Metrics
		var key string
		hit := false
		if store != nil {
			s := tr.now()
			key = cache.Key(b.tmpl.Points[p].Label, b.tmpl.Points[p].Workload, grid.Seed(g))
			tr.span("cache.key", g, s)
			s = tr.now()
			m, hit = store.Load(key)
			if sp := tr.span("cache.load", g, s); sp != nil && hit {
				sp.N = 1
			}
		}
		if !hit {
			a := tr.allocs()
			s := tr.now()
			if m, err = grid.RunCell(nil, ex, g); err != nil {
				return nil, err
			}
			if sp := tr.span("sim.run_cell", g, s); sp != nil {
				sp.N, sp.Allocs = m.Slots, tr.allocs()-a
			}
			if store != nil {
				s := tr.now()
				if err := store.Put(key, m); err != nil {
					return nil, err
				}
				tr.span("cache.put", g, s)
			}
		}
		s := tr.now()
		if err := ck.Add(p, t, m); err != nil {
			return nil, err
		}
		tr.span("campaign.add", g, s)
		if (g+1)%every == 0 {
			s := tr.now()
			if err := ck.Flush(); err != nil {
				return nil, err
			}
			if sp := tr.span("campaign.flush", g, s); sp != nil {
				sp.N = fileSize(sidecar)
			}
		}
	}
	artifact := driver.ArtifactPath(dir, 0)
	s := tr.now()
	if err := ck.Summary().Write(artifact); err != nil {
		return nil, err
	}
	if sp := tr.span("campaign.artifact", -1, s); sp != nil {
		sp.N = fileSize(artifact)
	}
	if err := ck.Remove(); err != nil {
		return nil, err
	}
	s = tr.now()
	merged, err := campaign.MergeFiles([]string{artifact})
	if err != nil {
		return nil, err
	}
	tr.span("campaign.merge", -1, s)
	return merged, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
