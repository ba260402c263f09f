// Package runner is the trial execution layer: it fans a batch of
// independently seeded sim executions out over a worker pool and streams
// each trial's Metrics to a sink, so million-trial campaigns need O(1)
// memory and can span machines.
//
// Determinism contract (the trial-layer analogue of the engines'
// bit-identity): trial t always runs with seed cfg.Seed + t, derived
// purely from the trial index — never from worker identity, scheduling,
// or shard layout. Shard i of k runs exactly the trials t ≡ i (mod k),
// so the union of any shard partition's trials is the same multiset of
// executions as the unsharded run, bit for bit, regardless of Workers or
// machine count. The sink receives metrics in ascending trial order
// (workers run ahead out of order; a bounded reorder window puts results
// back in sequence), which makes streaming accumulation deterministic
// too.
//
// Failure semantics: the first error in trial order aborts the batch —
// the context is cancelled, queued trials are never started, and
// in-flight executions are interrupted via sim.Config.Interrupt. Nothing
// drains the queue after a failure.
//
// RunSweep lifts the same contract one level up, to multi-point
// experiment sweeps: the full (point × trial) grid is flattened into a
// single global index space (g = point·Trials + trial, cell seed =
// point's Seed + trial) and sharded across machines by g mod k, so a
// sweep sharded k ways and merged per point is bit-identical to the
// unsharded sweep. Run is the sweep of one point, so in-order delivery,
// cancellation, and first-error semantics are identical.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"multicast/internal/sim"
)

// Shard names one slice of a trial batch: Index of Count machines. The
// zero value means unsharded (the whole batch).
type Shard struct {
	// Index identifies this shard, 0 ≤ Index < Count.
	Index int
	// Count is the total number of shards. Zero means 1.
	Count int
}

// normalize resolves the zero value and validates.
func (s Shard) normalize() (Shard, error) {
	if s.Count == 0 && s.Index == 0 {
		return Shard{Index: 0, Count: 1}, nil
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return s, fmt.Errorf("runner: invalid shard %d/%d", s.Index, s.Count)
	}
	return s, nil
}

// Cells returns the number of grid cells in this shard's slice of a
// total-cell grid: indices g ≡ Index (mod Count) in [0, total). This is
// the one definition of the slice size — checkpoint and artifact
// completeness checks (internal/driver) must agree with the execution
// loop about it.
func (s Shard) Cells(total int) int {
	n, err := s.normalize()
	if err != nil || total <= n.Index {
		return 0
	}
	return (total - n.Index + n.Count - 1) / n.Count
}

// Sink consumes one trial's metrics. It is called from a single
// goroutine in ascending trial order; returning an error aborts the
// batch like a trial failure.
type Sink func(trial int, m sim.Metrics) error

// result carries one finished trial to the in-order emitter.
type result struct {
	m   sim.Metrics
	err error
}

// Run executes plan's share of the trial batch of cfg and streams each
// trial's Metrics to sink in ascending trial order: it is RunSweep over
// the one point cfg, so trial t is cell (0, t) and runs with seed
// cfg.Seed + t. It returns the first error in trial order (trial
// failure or sink error), or ctx.Err() if the context is cancelled
// first; either way queued trials are not started and in-flight
// executions are interrupted.
func Run(ctx context.Context, cfg sim.Config, plan SweepPlan, sink Sink) error {
	return RunSweep(ctx, []sim.Config{cfg}, plan, func(_, t int, m sim.Metrics) error {
		return sink(t, m)
	})
}

// runGrid is the execution core of RunSweep: it walks the grid's
// global index space, restricted to this shard's slice
// (idx ≡ shard.Index mod shard.Count), fans cells out over a worker
// pool, and hands each result to sink in ascending index order, its
// first error (a cell's or the sink's, in index order) cancelling all
// outstanding work. Each pool worker recycles one sim.Executor across
// all the cells it runs, so a long campaign's steady-state trials reuse
// the engine's buffers instead of reallocating them (results are
// bit-identical either way).
func runGrid(ctx context.Context, grid Grid, plan SweepPlan, sink SweepSink) error {
	shard, err := plan.Shard.normalize()
	if err != nil {
		return err
	}
	total := grid.Total()
	local := shard.Cells(total)
	if local == 0 {
		return ctx.Err()
	}
	start := shard.Index
	// deliver hands cell idx's result to sink, naming a failed cell.
	deliver := func(idx int, r result) error {
		p, t := grid.Split(idx)
		if r.err != nil {
			// An interrupt caused by the surrounding cancellation is the
			// context's error, not the cell's.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("runner: sweep point %d trial %d (seed %d): %w",
				p, t, grid.Seed(idx), r.err)
		}
		return sink(p, t, r.m)
	}
	exec := func(done <-chan struct{}, ex *sim.Executor, idx int) result {
		m, err := grid.run(done, ex, idx)
		return result{m: m, err: err}
	}
	workers := plan.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > local {
		workers = local
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := runCtx.Done()

	if workers == 1 {
		// Serial fast path: no goroutines, same semantics.
		ex := sim.NewExecutor()
		for idx := start; idx < total; idx += shard.Count {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := deliver(idx, exec(done, ex, idx)); err != nil {
				return err
			}
		}
		return nil
	}

	type job struct {
		idx int
		out chan result
	}
	jobs := make(chan job)
	// futures carries each cell's result slot in dispatch (= index)
	// order; its capacity bounds how far workers run ahead of the
	// in-order emitter, so reorder memory is O(workers), not O(total).
	futures := make(chan chan result, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := sim.NewExecutor() // recycled across this worker's cells
			for j := range jobs {
				j.out <- exec(done, ex, j.idx) // buffered: never blocks
			}
		}()
	}
	go func() {
		defer close(jobs)
		defer close(futures)
		for idx := start; idx < total; idx += shard.Count {
			out := make(chan result, 1)
			select {
			case futures <- out:
			case <-runCtx.Done():
				return
			}
			select {
			case jobs <- job{idx: idx, out: out}:
			case <-runCtx.Done():
				return
			}
		}
	}()

	next := start
	var firstErr error
	for out := range futures {
		if firstErr != nil {
			continue // drain closed-over futures after cancellation
		}
		var r result
		select {
		case r = <-out:
		case <-runCtx.Done():
			firstErr = ctx.Err()
			if firstErr == nil {
				firstErr = runCtx.Err()
			}
			cancel()
			continue
		}
		if err := deliver(next, r); err != nil {
			firstErr = err
			cancel()
			continue
		}
		next += shard.Count
	}
	cancel()
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return firstErr
}
