package driver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"multicast/internal/campaign"
	"multicast/internal/sim"
)

// The pool decouples who computes a grid cell from where its result
// lands. Shards×Workers workers claim cells one at a time, in ascending
// global index g, from one shared counter; each worker hands its
// computed metrics, tagged with g, to a single fold stage in batches,
// and the fold stage replays each shard's cells in ascending-g order
// into that shard's campaign.Checkpointer. Folding in grid order is
// what keeps the two standing contracts intact:
//
//   - each shard's accumulators see the exact insertion order a
//     `-shard i/k` run through runner.RunSweep delivers, so the shard
//     artifacts (and so the merged summary) are bit-identical to the
//     cross-machine ones; and
//   - every checkpoint covers a prefix of its shard's slice, so a killed
//     campaign resumes at each shard's next undone cell.

// cellResult is one computed cell in flight from the pool to the fold
// stage.
type cellResult struct {
	g int
	m sim.Metrics
}

// A worker sends its computed cells to the fold stage in batches: it
// sends a batch once it holds batchCells results or batchAge has passed
// since it began the batch's first cell, and the remainder when it runs
// out of cells. A simulated cell takes 1–20 ms, longer than batchAge,
// so it travels alone; cache hits, about 5 µs each, travel 40–64 to a
// send. With one send per cell into one slot per worker, a
// replay-warm-shaped campaign (10 000 cached cells, 2 workers,
// GOMAXPROCS=2) kept 1.1–1.24 of its 2 cores busy; batches keep
// 1.51–1.55 busy and replay 1.3–1.4× as many cells/s.
// BenchmarkDriveWarm read within noise of these two values at 16–256
// cells and 50 µs–1 ms (docs/PERFORMANCE.md, "The pool handoff").
const (
	batchCells = 64
	batchAge   = 200 * time.Microsecond
)

// finishShard writes shard s's completed artifact (through the chaos
// artifact-fault seam), drops its checkpoint, and announces the shard
// done.
func (d *drive) finishShard(s, attempt int, ck *campaign.Checkpointer, finished []bool) error {
	chaos := d.opts.Chaos
	var fp campaign.FaultPoint
	if chaos != nil && chaos.ArtifactFault != nil {
		fp = func(data []byte) *campaign.Fault {
			return chaos.ArtifactFault(s, attempt, data)
		}
	}
	if err := ck.WriteArtifact(ArtifactPath(d.opts.Dir, s), fp); err != nil {
		return err
	}
	if err := ck.Remove(); err != nil {
		return err
	}
	finished[s] = true
	local := d.localCells(s)
	d.emit(Event{Shard: s, Kind: EventShardDone, Done: local, Total: local, Attempt: attempt})
	return nil
}

// runAttempt is one launch of the pool: per-shard setup (completeness
// check, checkpoint resume, chaos arming, EventStart), then workers
// computing cells concurrently while the fold stage lands them in grid
// order. finished carries the shards whose artifacts are complete
// across attempts. A failed attempt also reports the shard whose
// failure names it.
func (d *drive) runAttempt(ctx context.Context, attempt int, finished []bool) (shard int, err error) {
	k := d.opts.Shards
	chaos := d.opts.Chaos
	locals := make([]int, k)
	cks := make([]*campaign.Checkpointer, k)
	// start[s] is how many of shard s's cells were folded before this
	// attempt; workers skip those. It is written only here, before the
	// workers launch, while the fold stage advances the checkpointers.
	start := make([]int, k)
	active := 0 // shards the fold stage has yet to finish or fail
	for i := 0; i < k; i++ {
		locals[i] = d.localCells(i)
		start[i] = locals[i]
		if finished[i] {
			continue
		}
		if d.opts.Resume || attempt > 0 {
			complete, err := d.shardComplete(i, attempt, locals[i])
			if err != nil {
				// Foreign artifacts are deterministic refusals; retrying
				// the pool would just replay them.
				return i, terminalError{err}
			}
			if complete {
				d.emit(Event{Shard: i, Kind: EventShardDone, Done: locals[i], Total: locals[i], Attempt: attempt})
				finished[i] = true
				continue
			}
		}
		ck := campaign.NewCheckpointer(CheckpointPath(d.opts.Dir, i), d.shardTemplate(i), d.opts.CheckpointEvery)
		if chaos != nil && chaos.CheckpointFault != nil {
			ck.Fault = func(data []byte) *campaign.Fault {
				return chaos.CheckpointFault(i, attempt, data)
			}
		}
		if d.opts.Resume || attempt > 0 {
			if _, err := ck.Resume(); err != nil {
				return i, terminalError{err} // foreign/corrupt checkpoint: retrying replays it
			}
		}
		if chaos != nil && chaos.Arm != nil {
			chaos.Arm(i, attempt, ck.Done(), locals[i])
		}
		d.emit(Event{Shard: i, Kind: EventStart, Done: ck.Done(), Total: locals[i], Attempt: attempt})
		cks[i] = ck
		start[i] = ck.Done()
		if ck.Done() == locals[i] {
			// An empty slice, or a resumed prefix that already covers it:
			// nothing for the pool to compute, finalize on the spot.
			if err := d.finishShard(i, attempt, ck, finished); err != nil {
				return i, err
			}
			continue
		}
		active++
	}
	if active == 0 {
		return 0, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := k * d.opts.Workers
	// One slot per worker: a worker hands its batch over and claims the
	// next cell while the fold stage catches up. A batch a worker still
	// holds while its next cell simulates folds one cell later than a
	// lone send would have; nothing else about the fold changes.
	results := make(chan []cellResult, workers)

	// The failure at the lowest grid index names the attempt — a
	// deterministic pick, whatever order the pool hit failures in.
	var failMu sync.Mutex
	failG, failErr := 0, error(nil)
	fail := func(g int, err error) {
		failMu.Lock()
		if failErr == nil || g < failG {
			failG, failErr = g, err
		}
		failMu.Unlock()
		cancel()
	}

	total := d.grid.Total()
	var next atomic.Int64 // the lowest unclaimed grid cell
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := sim.NewExecutor()
			var batch []cellResult
			var begun time.Time // when the worker began batch[0]
			// send hands batch to the fold stage; false means the pool
			// stopped, and the batch is dropped.
			send := func() bool {
				select {
				case results <- batch:
					batch = nil // the fold stage owns the sent slice
					return true
				case <-runCtx.Done():
					return false
				}
			}
			for runCtx.Err() == nil {
				g := int(next.Add(1) - 1)
				if g >= total {
					if len(batch) > 0 {
						send()
					}
					return
				}
				if g/k < start[g%k] {
					continue // folded before this attempt
				}
				if len(batch) == 0 {
					begun = time.Now()
				}
				m, err := d.grid.RunCell(runCtx.Done(), ex, g)
				if err != nil {
					if runCtx.Err() == nil {
						fail(g, err)
					}
					return
				}
				batch = append(batch, cellResult{g: g, m: m})
				if (len(batch) == batchCells || time.Since(begun) >= batchAge) && !send() {
					return
				}
			}
		}()
	}

	// The fold stage: land results in ascending-g order per shard. A
	// cell arriving early waits in pending until its shard's slice
	// reaches it. chaos.Cell fires here, after the fold, so fault
	// ordinals count folded cells — deterministic per shard — not the
	// racy compute order. A fold-side failure (a checkpoint fault, an
	// injected crash, an artifact write error) stops only its own shard:
	// every other shard still reaches all of its own fault points, so a
	// seeded chaos schedule plays out the same way on every run.
	//
	// pending points into the received batches rather than copying each
	// cell's Metrics: a map keeps values over 128 bytes out of line, so a
	// copy would cost a heap allocation per cell.
	pending := make(map[int]*sim.Metrics, workers*batchCells)
	shardErrs := make([]error, k) // the fold-side failure per shard
	leave := func(s int, err error) {
		shardErrs[s] = err
		active--
	}
	// land folds r and then every pending cell its shard's slice
	// reaches through it.
	land := func(r *cellResult) {
		s := r.g % k
		if shardErrs[s] != nil {
			return // the shard already failed; drop its stragglers
		}
		pending[r.g] = &r.m
		ck := cks[s]
		for {
			g := s + ck.Done()*k
			m, ok := pending[g]
			if !ok {
				return
			}
			delete(pending, g)
			p, t := d.grid.Split(g)
			if err := ck.Add(p, t, *m); err != nil {
				leave(s, err)
				return
			}
			d.emit(Event{Shard: s, Kind: EventCell, Done: ck.Done(), Total: locals[s], Attempt: attempt,
				Cache: d.cache.mark(g)})
			if chaos != nil && chaos.Cell != nil {
				if err := chaos.Cell(runCtx, s, attempt, ck.Done()); err != nil {
					leave(s, err)
					return
				}
			}
			if ck.Done() == locals[s] {
				leave(s, d.finishShard(s, attempt, ck, finished))
				return
			}
		}
	}
fold:
	for active > 0 {
		select {
		case batch := <-results:
			for i := range batch {
				if runCtx.Err() != nil {
					break fold // the pool stopped; drop the rest, as a worker would
				}
				land(&batch[i])
			}
		case <-runCtx.Done():
			break fold
		}
	}
	cancel()
	wg.Wait()

	// The lowest-index failed shard names the attempt, then compute-side
	// failures, then cancellation.
	for s, serr := range shardErrs {
		if serr != nil {
			shard, err = s, serr
			break
		}
	}
	if err == nil && failErr != nil {
		shard, err = failG%k, failErr
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		// The checkpoints keep every folded cell; flush any tail the
		// throttle was still holding so a retry resumes as far along as
		// possible (best effort — the stale checkpoint is also correct).
		// A shard whose own failure was an injected fault simulates dying
		// on the spot, so it gets no rescue flush — and neither does any
		// shard when the whole pool's failure is the injected one.
		for s, ck := range cks {
			if ck == nil || finished[s] || ck.Done() == 0 {
				continue
			}
			cause := shardErrs[s]
			if cause == nil {
				cause = err
			}
			if !errors.Is(cause, ErrInjected) {
				_ = ck.Flush()
			}
		}
	}
	return shard, err
}
