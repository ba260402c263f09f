package driver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"multicast/internal/campaign"
	"multicast/internal/sim"
)

// The pool decouples who computes a grid cell from where its result
// lands. Shards×Workers workers claim cells in ascending global index g
// from one shared counter; a single fold stage receives the computed
// metrics tagged with g and replays each shard's cells in ascending-g
// order into that shard's campaign.Checkpointer. Folding in grid order
// is what keeps the two standing contracts intact:
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
	// One slot per worker: a worker hands its cell over and claims the
	// next while the fold stage catches up.
	results := make(chan cellResult, workers)

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
			for runCtx.Err() == nil {
				g := int(next.Add(1) - 1)
				if g >= total {
					return
				}
				if g/k < start[g%k] {
					continue // folded before this attempt
				}
				m, err := d.grid.RunCell(runCtx.Done(), ex, g)
				if err != nil {
					if runCtx.Err() == nil {
						fail(g, err)
					}
					return
				}
				select {
				case results <- cellResult{g: g, m: m}:
				case <-runCtx.Done():
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
	pending := make(map[int]sim.Metrics, workers)
	shardErrs := make([]error, k) // the fold-side failure per shard
	leave := func(s int, err error) {
		shardErrs[s] = err
		active--
	}
fold:
	for active > 0 {
		select {
		case r := <-results:
			s := r.g % k
			if shardErrs[s] != nil {
				continue // the shard already failed; drop its stragglers
			}
			pending[r.g] = r.m
			ck := cks[s]
			for {
				g := s + ck.Done()*k
				m, ok := pending[g]
				if !ok {
					break
				}
				delete(pending, g)
				p, t := d.grid.Split(g)
				if err := ck.Add(p, t, m); err != nil {
					leave(s, err)
					break
				}
				d.emit(Event{Shard: s, Kind: EventCell, Done: ck.Done(), Total: locals[s], Attempt: attempt,
					Cache: d.cache.mark(g)})
				if chaos != nil && chaos.Cell != nil {
					if err := chaos.Cell(runCtx, s, attempt, ck.Done()); err != nil {
						leave(s, err)
						break
					}
				}
				if ck.Done() == locals[s] {
					leave(s, d.finishShard(s, attempt, ck, finished))
					break
				}
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
