package runner

import (
	"context"
	"fmt"

	"multicast/internal/sim"
)

// SweepPlan describes a multi-point experiment sweep: Trials executions
// of every point, flattened into one global (point × trial) grid that
// shards across machines exactly like a single point's trial batch.
type SweepPlan struct {
	// Trials is the number of trials per point (the same for every
	// point); cell (p, t) runs with seed points[p].Seed + t.
	Trials int
	// Shard selects this machine's slice of the flattened grid: global
	// indices g ≡ Shard.Index (mod Shard.Count), where g = p·Trials + t.
	// The zero value runs the whole sweep.
	Shard Shard
	// Workers caps the worker pool; 0 means GOMAXPROCS.
	Workers int
}

// SweepSink consumes one grid cell's metrics. It is called from a single
// goroutine in ascending global-index order (all of point 0's local
// trials, then point 1's, …); returning an error aborts the sweep.
type SweepSink func(point, trial int, m sim.Metrics) error

// RunSweep executes plan's share of the (point × trial) grid over the
// given workload points and streams each cell's Metrics to sink.
//
// This is the sweep-level lift of Run's determinism contract: cell
// (p, t) always runs with seed points[p].Seed + t — exactly the seed
// trial t uses when point p runs alone through Run — and the shard
// layout only decides which machine executes a cell, never what the
// cell computes. Shard i of k runs the cells g ≡ i (mod k) of the
// flattened index space g = p·Trials + t, so the union of any shard
// partition is the same multiset of executions as the unsharded sweep,
// and per-point summaries merged across shards (e.g. stats.Accumulator
// keyed by point) are bit-identical to the unsharded sweep's while
// each point's trial count stays within the accumulators' sample cap.
//
// Failure semantics match Run: the first error in grid order (named by
// point and trial) aborts the sweep, queued cells never start, and
// in-flight executions are interrupted.
func RunSweep(ctx context.Context, points []sim.Config, plan SweepPlan, sink SweepSink) error {
	grid, err := NewGrid(points, plan.Trials)
	if err != nil {
		return err
	}
	return runGrid(ctx, grid.Total(), plan.Shard, plan.Workers,
		func(done <-chan struct{}, exec *sim.Executor, g int) result {
			m, err := grid.run(done, exec, g)
			return result{m: m, err: err}
		},
		func(g int, r result) error {
			p, t := grid.Split(g)
			if r.err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("runner: sweep point %d trial %d (seed %d): %w",
					p, t, grid.Seed(g), r.err)
			}
			return sink(p, t, r.m)
		})
}
