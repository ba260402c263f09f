// Package driver turns a sharded campaign from a hand-run procedure
// into a supervised one: given a campaign spec and a shard count k, it
// runs the campaign's grid cells on one in-process worker pool, streams
// per-shard progress, retries failed attempts from the shard
// checkpoints, and gathers and merges the shard artifacts into the
// final summary — the summary the unsharded run would have produced,
// bit for bit.
//
// The pool decouples who computes a cell from where its result lands
// (see pool.go): workers claim cells one at a time in ascending grid
// order and hand their results over in batches, and one fold stage
// lands each shard's cells, in order, in that shard's
// campaign.Checkpointer. So a crashed or cancelled driver resumes every
// shard at its next undone grid cell, and the artifact directory is the
// only resume state, which is what makes a driven campaign killable:
// re-running with Options.Resume skips shards whose artifacts are
// complete, resumes checkpointed ones, and re-merges. Cross-machine
// campaigns do not go through the driver: each machine runs its
// `-shard i/k` slice through runner.RunSweep, and the artifacts merge
// the same way.
//
// Options.Chaos is the driver's fault-injection seam: internal/chaos
// plugs deterministic, seeded failures into the checkpoint/fold/gather
// path through it (see ChaosHooks). Gathering is self-healing against
// non-foreign damage — a corrupt or misdelivered shard artifact is
// discarded and its shard re-run — while corrupt checkpoints and
// foreign artifacts stay hard errors, because regenerating over them
// could silently discard another campaign's work.
package driver

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"multicast/internal/cache"
	"multicast/internal/campaign"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

// Spec describes one campaign to drive.
type Spec struct {
	// Template carries the campaign identity and artifact skeleton (its
	// collectors are ignored; shard workers start from CloneEmpty).
	Template *campaign.Summary
	// Points are the workload points backing Template.Points, in the
	// same order.
	Points []sim.Config
	// Trials is the trial count per point; must match Template.Trials.
	Trials int
}

// ErrInjected marks a failure injected by the chaos harness (see
// internal/chaos). The driver uses it to skip best-effort rescue work a
// real crash could not have performed — e.g. the tail checkpoint flush
// after a simulated process death.
var ErrInjected = errors.New("injected chaos fault")

// Options tune a driven campaign.
type Options struct {
	// Shards is k: the campaign grid is split into shards 0..k-1, and
	// shard i's artifact holds the cells g ≡ i (mod k). Minimum 1.
	Shards int
	// Workers is the pool's size per shard: the pool runs Shards×Workers
	// workers over the whole grid. 0 divides GOMAXPROCS evenly across
	// shards (minimum 1 each).
	Workers int
	// Retries is how many times a failed attempt of the pool is
	// relaunched (resuming every unfinished shard from its checkpoint)
	// before the campaign fails. 0 means fail on the first error.
	Retries int
	// Dir is the campaign directory holding shard artifacts and
	// checkpoints. Required: it is the resume state.
	Dir string
	// Resume continues a previously interrupted campaign in Dir:
	// completed shard artifacts are kept, checkpointed shards resume at
	// their next undone cell. Without Resume, a Dir already holding
	// campaign files is refused.
	Resume bool
	// CheckpointEvery is the number of grid cells between checkpoint
	// flushes; 0 or 1 checkpoints every cell.
	CheckpointEvery int
	// Progress, if non-nil, receives per-shard events.
	Progress func(Event)
	// Cache, if non-nil, is the content-addressed cell result cache:
	// every grid cell is looked up before it is computed, and a hit flows
	// into the fold exactly like a computed result, so artifacts,
	// checkpoints, and the merged summary are byte-identical with or
	// without it. Misses store their result back.
	Cache *cache.Store
	// Chaos, if non-nil, injects deterministic faults into the campaign
	// fabric (see ChaosHooks and internal/chaos).
	Chaos *ChaosHooks
}

// ChaosHooks is the driver's fault-injection seam. Every field is
// optional; nil hooks are skipped. internal/chaos provides the standard
// implementation — a seeded, deterministic schedule — but the driver
// only depends on this shape, so tests can hand-roll hooks too.
type ChaosHooks struct {
	// Begin is called once per Run before workers launch, with the
	// shard count — the point where seeded wildcard targets resolve.
	Begin func(shards int)
	// Arm is called as a shard's attempt starts, after checkpoint
	// resume: done cells are already covered, cells is the shard's
	// local slice size.
	Arm func(shard, attempt, done, cells int)
	// Cell is called on the fold stage after each checkpointed cell,
	// with done the shard's folded cell count; returning an error fails
	// the shard there, as if its worker had crashed, and blocking on ctx
	// simulates a stalled worker.
	Cell func(ctx context.Context, shard, attempt, done int) error
	// CheckpointFault may replace a checkpoint flush with a storage
	// fault (the payload bytes are what Flush would have written).
	CheckpointFault func(shard, attempt int, data []byte) *campaign.Fault
	// ArtifactFault may replace a shard artifact write with a storage
	// fault.
	ArtifactFault func(shard, attempt int, data []byte) *campaign.Fault
	// Gather is called after all shards succeed, before the merge — the
	// seam for delivery faults (duplicated or swapped artifacts).
	Gather func(dir string, shards int) error
}

// ArtifactPath returns the shard artifact path within dir the driver
// writes and gathers.
func ArtifactPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.json", shard))
}

// CheckpointPath returns the shard checkpoint sidecar path within dir —
// exported so operators (and chaos drills) can name the sidecar to
// inspect or remove when a corrupt-checkpoint refusal asks for it.
func CheckpointPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt.json", shard))
}

// Run drives the campaign to completion and returns the merged summary.
// On failure the campaign directory keeps every complete artifact and
// checkpoint, so rerunning with Options.Resume loses no finished cell.
func Run(ctx context.Context, spec Spec, opts Options) (*campaign.Summary, error) {
	if spec.Template == nil {
		return nil, fmt.Errorf("driver: no campaign template")
	}
	if err := spec.Template.Validate(); err != nil {
		return nil, fmt.Errorf("driver: campaign template: %w", err)
	}
	if spec.Trials != spec.Template.Trials {
		return nil, fmt.Errorf("driver: spec trials %d != template trials %d", spec.Trials, spec.Template.Trials)
	}
	if len(spec.Points) != len(spec.Template.Points) {
		return nil, fmt.Errorf("driver: %d workload points for %d template points",
			len(spec.Points), len(spec.Template.Points))
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("driver: shards = %d must be positive", opts.Shards)
	}
	if opts.Retries < 0 {
		return nil, fmt.Errorf("driver: retries = %d must not be negative", opts.Retries)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("driver: campaign directory required (it is the resume state)")
	}
	grid, err := runner.NewGrid(spec.Points, spec.Trials)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if !opts.Resume {
		stale, err := filepath.Glob(filepath.Join(opts.Dir, "shard-*.json"))
		if err != nil {
			return nil, err
		}
		if len(stale) > 0 {
			return nil, fmt.Errorf("driver: %s already holds campaign files (%s, …) — resume the campaign or remove the directory",
				opts.Dir, filepath.Base(stale[0]))
		}
	}

	d := &drive{spec: spec, opts: opts, grid: grid}
	if d.opts.Workers == 0 {
		d.opts.Workers = max(1, runtime.GOMAXPROCS(0)/opts.Shards)
	}
	if opts.Cache != nil {
		d.cache = newCellCache(opts.Cache, spec.Template, grid)
		d.grid.Cache = d.cache // guarded: a typed-nil adapter must not enable the seam
	}
	if c := d.opts.Chaos; c != nil && c.Begin != nil {
		c.Begin(opts.Shards)
	}

	// The pool is one retry unit: a failed attempt relaunches everything
	// unfinished, resuming every shard from its checkpoint, with
	// EventRetry announced per unfinished shard.
	finished := make([]bool, opts.Shards)
	for attempt := 0; ; attempt++ {
		shard, err := d.runAttempt(ctx, attempt, finished)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var term terminalError
		if errors.As(err, &term) {
			return nil, term.err
		}
		if attempt >= opts.Retries {
			return nil, fmt.Errorf("driver: shard %d/%d failed after %d attempt(s): %w",
				shard, opts.Shards, attempt+1, err)
		}
		for s, ok := range finished {
			if !ok {
				d.emit(Event{Shard: s, Kind: EventRetry, Total: d.localCells(s), Attempt: attempt, Err: err})
			}
		}
	}

	if c := d.opts.Chaos; c != nil && c.Gather != nil {
		if err := c.Gather(d.opts.Dir, d.opts.Shards); err != nil {
			return nil, err
		}
	}
	paths := make([]string, opts.Shards)
	for i := range paths {
		paths[i] = ArtifactPath(opts.Dir, i)
	}
	merged, err := campaign.MergeFiles(paths)
	if err != nil {
		return nil, fmt.Errorf("driver: gathering shard artifacts: %w", err)
	}
	return merged, nil
}

// drive is the shared state of one Run call.
type drive struct {
	spec  Spec
	opts  Options
	grid  runner.Grid
	cache *cellCache // nil unless Options.Cache is set

	mu sync.Mutex // serializes Progress callbacks
}

func (d *drive) emit(ev Event) {
	if d.opts.Progress == nil {
		return
	}
	if ev.Err != nil {
		ev.ErrText = ev.Err.Error()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.opts.Progress(ev)
}

// localCells counts the grid cells of shard i — the runner's own slice
// definition, so completeness checks agree with `-shard i/k` runs about
// which cells a shard artifact holds.
func (d *drive) localCells(i int) int {
	return runner.Shard{Index: i, Count: d.opts.Shards}.Cells(d.grid.Total())
}

// terminalError marks a failure retrying cannot fix — identity and
// validation mismatches are deterministic, so relaunching the pool
// would just replay them Retries times with misleading progress lines.
type terminalError struct{ err error }

func (e terminalError) Error() string { return e.err.Error() }
func (e terminalError) Unwrap() error { return e.err }

// shardTemplate is shard i's empty artifact skeleton.
func (d *drive) shardTemplate(i int) *campaign.Summary {
	s := d.spec.Template.CloneEmpty()
	s.ShardIndex, s.ShardCount = i, d.opts.Shards
	return s
}

// shardComplete reports whether shard i's artifact already covers its
// whole slice. An artifact from a different campaign is a hard error —
// re-running over it could silently discard another campaign's work.
// Damage the shard itself can repair — a corrupt artifact, or one from
// this campaign misdelivered into the wrong shard slot or with the
// wrong coverage — is discarded (with an EventDiscard) and the shard
// re-runs: the cells are deterministic, so regeneration is always safe.
func (d *drive) shardComplete(i, attempt, local int) (bool, error) {
	path := ArtifactPath(d.opts.Dir, i)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	discard := func(reason error) (bool, error) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return false, err
		}
		d.emit(Event{Shard: i, Kind: EventDiscard, Total: local, Attempt: attempt, Err: reason})
		return false, nil
	}
	s, err := campaign.Read(path)
	if err != nil {
		if errors.Is(err, campaign.ErrCorruptArtifact) {
			return discard(fmt.Errorf("driver: shard %d artifact: %w", i, err))
		}
		return false, fmt.Errorf("driver: shard %d artifact: %w", i, err)
	}
	tmpl := d.shardTemplate(i)
	if s.Identity() != tmpl.Identity() {
		return false, fmt.Errorf("driver: artifact %s is from a different campaign:\n  %s\nvs this campaign:\n  %s",
			path, s.Identity(), tmpl.Identity())
	}
	if s.ShardIndex != i || s.ShardCount != d.opts.Shards {
		return discard(fmt.Errorf("driver: artifact %s is shard %d/%d, not %d/%d — misdelivered; regenerating",
			path, s.ShardIndex, s.ShardCount, i, d.opts.Shards))
	}
	if s.Cells() != int64(local) {
		return discard(fmt.Errorf("driver: artifact %s covers %d of %d cells — incomplete; regenerating",
			path, s.Cells(), local))
	}
	return true, nil
}
