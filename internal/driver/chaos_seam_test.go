package driver

// Tests for the chaos seam itself — driven through hand-rolled
// ChaosHooks literals rather than internal/chaos, so the driver's
// gather-time self-healing and terminal-checkpoint paths are pinned
// independently of the schedule layer built on top of them.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"multicast/internal/campaign"
)

// countEvents returns a Progress callback tallying event kinds.
func countEvents(mu *sync.Mutex, counts map[EventKind]int) func(Event) {
	return func(ev Event) {
		mu.Lock()
		counts[ev.Kind]++
		mu.Unlock()
	}
}

// crashShardAt returns a per-cell callback (see cellHook) that fails
// the given shard once its attempt-0 run reaches done cells.
func crashShardAt(shard, done int) func(int, int, int) error {
	return func(s, attempt, d int) error {
		if s == shard && attempt == 0 && d == done {
			return fmt.Errorf("injected worker crash")
		}
		return nil
	}
}

// A shard whose checkpoint sidecar is corrupt must fail the campaign
// fast as terminal — burning zero of the retry budget — instead of
// rerunning into the same refusal -retries times. (Satellite: corrupt
// resume state needs an operator, not retries.)
func TestDriveCorruptCheckpointFailsFast(t *testing.T) {
	spec := testSpec(4)
	dir := t.TempDir()

	// Crash shard 0 mid-run to leave a real sidecar behind, then tear it.
	_, err := Run(context.Background(), spec, Options{
		Shards: 2, Workers: 2, Dir: dir,
		Chaos: cellHook(crashShardAt(0, 2)),
	})
	if err == nil {
		t.Fatal("seed crash run unexpectedly succeeded")
	}
	ckpt := CheckpointPath(dir, 0)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	counts := map[EventKind]int{}
	_, err = Run(context.Background(), spec, Options{
		Shards: 2, Workers: 2, Dir: dir, Resume: true, Retries: 3,
		Progress: countEvents(&mu, counts),
	})
	if !errors.Is(err, campaign.ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
	if counts[EventRetry] != 0 {
		t.Errorf("%d retry events — a corrupt checkpoint must not burn the retry budget", counts[EventRetry])
	}
}

// A shard artifact corrupted between completion and gather fails the
// merge with ErrCorruptArtifact; a resume must then discard the damaged
// file (emitting EventDiscard), regenerate the shard, and merge
// bit-identically. (Satellite: the driver's gather loop self-heals what
// campaign.Read refuses.)
func TestDriveGatherCorruptArtifactDiscardAndRegenerate(t *testing.T) {
	spec := testSpec(6)
	want := unsharded(t, spec)
	dir := t.TempDir()

	_, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: dir,
		Chaos: &ChaosHooks{Gather: func(d string, shards int) error {
			p := ArtifactPath(d, 1)
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)/3], 0o644)
		}},
	})
	if !errors.Is(err, campaign.ErrCorruptArtifact) {
		t.Fatalf("err = %v, want ErrCorruptArtifact", err)
	}

	var mu sync.Mutex
	counts := map[EventKind]int{}
	merged, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: dir, Resume: true,
		Progress: countEvents(&mu, counts),
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if counts[EventDiscard] != 1 {
		t.Errorf("%d discard events, want 1", counts[EventDiscard])
	}
	assertSameSummaries(t, merged, want)
}

// A duplicate shard delivery — one shard's artifact overwriting
// another's slot — must be refused by the gather merge, and a resume
// must discard the misdelivered file and regenerate the true shard.
// (Satellite: duplicate-shard gather path in the driver, not just
// campaign.Merge's refusal.)
func TestDriveGatherDuplicateShardDiscardAndRegenerate(t *testing.T) {
	spec := testSpec(6)
	want := unsharded(t, spec)
	dir := t.TempDir()

	_, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: dir,
		Chaos: &ChaosHooks{Gather: func(d string, shards int) error {
			data, err := os.ReadFile(ArtifactPath(d, 0))
			if err != nil {
				return err
			}
			return os.WriteFile(ArtifactPath(d, 2), data, 0o644)
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicates shard") {
		t.Fatalf("err = %v, want duplicate-shard merge refusal", err)
	}

	var mu sync.Mutex
	counts := map[EventKind]int{}
	merged, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: dir, Resume: true,
		Progress: countEvents(&mu, counts),
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if counts[EventDiscard] != 1 {
		t.Errorf("%d discard events, want 1", counts[EventDiscard])
	}
	assertSameSummaries(t, merged, want)
}

// An artifact from a different campaign landing in a shard slot is NOT
// self-healed: both the gather merge and a subsequent resume refuse it
// by identity, because silently deleting foreign data would destroy
// another campaign's results. (Satellite: foreign-artifact gather
// path.)
func TestDriveGatherForeignArtifactHardError(t *testing.T) {
	spec := testSpec(6)
	dir := t.TempDir()

	// A valid artifact of a different campaign (different base seed).
	foreign := testSpec(6)
	foreign.Template = campaign.New("test-sweep", 8, 6, []campaign.Point{
		{Label: "n=32", Workload: "mcast n=32 adv=random seed=8"},
		{Label: "n=64", Workload: "mcast n=64 adv=burst seed=8"},
	})

	_, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: dir,
		Chaos: &ChaosHooks{Gather: func(d string, shards int) error {
			f := foreign.Template.CloneEmpty()
			f.ShardIndex, f.ShardCount = 1, 3
			return f.WriteWithFault(ArtifactPath(d, 1), nil)
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("err = %v, want different-campaign merge refusal", err)
	}

	_, err = Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: dir, Resume: true,
	})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("resume err = %v, want different-campaign refusal (no silent discard of foreign data)", err)
	}
}
