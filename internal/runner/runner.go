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
// unsharded sweep. Both entry points share one worker-pool core
// (runGrid), so in-order delivery, cancellation, and first-error
// semantics are identical.
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

// Plan describes one batch of trials.
type Plan struct {
	// Trials is the total number of trials across all shards. Seeds are
	// cfg.Seed + t for t ∈ [0, Trials).
	Trials int
	// Shard selects this machine's slice: trials t ≡ Shard.Index
	// (mod Shard.Count). The zero value runs everything.
	Shard Shard
	// Workers caps the worker pool; 0 means GOMAXPROCS.
	Workers int
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
// trial's Metrics to sink in ascending trial order. It returns the first
// error in trial order (trial failure or sink error), or ctx.Err() if
// the context is cancelled first; either way queued trials are not
// started and in-flight executions are interrupted.
func Run(ctx context.Context, cfg sim.Config, plan Plan, sink Sink) error {
	if plan.Trials <= 0 {
		return fmt.Errorf("runner: trials = %d must be positive", plan.Trials)
	}
	return runGrid(ctx, plan.Trials, plan.Shard, plan.Workers,
		func(done <-chan struct{}, exec *sim.Executor, t int) result {
			c := cfg
			c.Interrupt = done
			c.Seed = cfg.Seed + uint64(t)
			m, err := exec.Run(c)
			return result{m: m, err: err}
		},
		func(t int, r result) error {
			if r.err != nil {
				// An interrupt caused by the surrounding cancellation is
				// the context's error, not the trial's.
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("runner: trial %d (seed %d): %w", t, cfg.Seed+uint64(t), r.err)
			}
			return sink(t, r.m)
		})
}

// runGrid is the shared execution core of Run and RunSweep: it walks the
// global index space [0, total), restricted to this shard's slice
// (idx ≡ shard.Index mod shard.Count), fans indices out over a worker
// pool, and hands each result to deliver in ascending index order. exec
// receives the cancellation channel to wire into sim.Config.Interrupt
// and a worker-local sim.Executor — each pool worker recycles one
// execution context across all the cells it runs, so a long campaign's
// steady-state trials reuse the engine's buffers instead of
// reallocating them (results are bit-identical either way).
// deliver owns error translation and the sink call, and its first error
// (in index order) cancels all outstanding work.
func runGrid(ctx context.Context, total int, reqShard Shard, reqWorkers int,
	exec func(done <-chan struct{}, ex *sim.Executor, idx int) result,
	deliver func(idx int, r result) error) error {
	shard, err := reqShard.normalize()
	if err != nil {
		return err
	}
	local := shard.Cells(total)
	if local == 0 {
		return ctx.Err()
	}
	start := shard.Index
	workers := reqWorkers
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

// All runs the whole batch unsharded and buffers every trial's metrics
// in trial order — the compatibility shape of the old sim.RunTrials.
// Prefer Run with a streaming sink for large batches.
func All(ctx context.Context, cfg sim.Config, trials int) ([]sim.Metrics, error) {
	ms := make([]sim.Metrics, 0, max(trials, 0))
	err := Run(ctx, cfg, Plan{Trials: trials}, func(_ int, m sim.Metrics) error {
		ms = append(ms, m)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}
