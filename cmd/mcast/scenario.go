package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"multicast"
	"multicast/internal/runner"
)

// listScenarios prints the registry, one scenario per line (the name is
// the first field — CI scrapes it to verify docs coverage).
func listScenarios() {
	for _, s := range multicast.Scenarios() {
		fmt.Printf("%-19s %s\n", s.Name, s.Description)
	}
}

// lookupScenario resolves a registry scenario by name, listing the
// registry in the error.
func lookupScenario(name string) (multicast.Scenario, error) {
	scen, ok := multicast.ScenarioByName(name)
	if !ok {
		var names []string
		for _, s := range multicast.Scenarios() {
			names = append(names, s.Name)
		}
		return scen, fmt.Errorf("unknown scenario %q (have %s)", name, strings.Join(names, ", "))
	}
	return scen, nil
}

// sweepSummary builds the artifact skeleton of a scenario-sweep
// campaign around its per-point collectors. The skeleton comes from the
// same constructor RunScenarioCampaign uses, so CLI and library
// artifacts of one campaign always merge.
func sweepSummary(scen multicast.Scenario, opts multicast.ScenarioOptions,
	points []multicast.ScenarioPoint, trials int, cols []*runner.Collector) *multicast.Summary {
	s := multicast.NewScenarioSummary(scen, opts.Seed, trials, points)
	for i := range s.Points {
		s.Points[i].Collector = cols[i]
	}
	return s
}

// runScenario executes (one shard of) a scenario sweep and writes the
// mergeable per-point summary artifact.
func runScenario(ctx context.Context, name string, opts multicast.ScenarioOptions, engine multicast.Engine,
	trials int, shard multicast.Shard, workers int, sumOut string) error {
	scen, err := lookupScenario(name)
	if err != nil {
		return err
	}
	points := multicast.ExpandScenario(scen, opts)
	if len(points) == 0 {
		return fmt.Errorf("scenario %s expanded to zero points", name)
	}
	cfgs := make([]multicast.Config, len(points))
	cols := make([]*runner.Collector, len(points))
	for i, p := range points {
		p.Config.Engine = engine
		cfgs[i] = p.Config
		cols[i] = runner.NewCollector()
	}

	fmt.Printf("scenario=%s points=%d trials=%d seed=%d\n\n", scen.Name, len(points), trials, opts.Seed)
	err = multicast.RunSweepContext(ctx, cfgs,
		multicast.SweepPlan{Trials: trials, Shard: shard, Workers: workers},
		func(p, t int, m multicast.Metrics) error { return cols[p].Add(t, m) })
	if err != nil {
		return err
	}
	if shard.Count > 1 {
		var cells int64
		for _, c := range cols {
			cells += c.Trials()
		}
		fmt.Printf("shard %d/%d: %d of %d grid cells\n\n",
			shard.Index, shard.Count, cells, len(points)*trials)
	}
	sum := sweepSummary(scen, opts, points, trials, cols)
	sum.ShardIndex, sum.ShardCount = shard.Index, max(shard.Count, 1)
	printCampaign(os.Stdout, sum)
	if sumOut != "" {
		if err := sum.Write(sumOut); err != nil {
			return err
		}
		fmt.Printf("summary written to %s\n", sumOut)
	}
	return nil
}
