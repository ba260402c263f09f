package driver

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/campaign"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

func mcast(n int) func() (protocol.Algorithm, error) {
	return func() (protocol.Algorithm, error) { return core.NewMultiCast(core.Sim(), n) }
}

// testSpec builds a two-point campaign with distinct workloads per
// point, so cross-point or cross-shard mixups cannot cancel out.
func testSpec(trials int) Spec {
	points := []sim.Config{
		{N: 32, Algorithm: mcast(32), Adversary: adversary.RandomFraction(0.4), Budget: 10_000, Seed: 7},
		{N: 64, Algorithm: mcast(64), Adversary: adversary.FullBurst(0), Budget: 15_000, Seed: 7},
	}
	tmpl := campaign.New("test-sweep", 7, trials, []campaign.Point{
		{Label: "n=32", Workload: "mcast n=32 adv=random seed=7"},
		{Label: "n=64", Workload: "mcast n=64 adv=burst seed=7"},
	})
	return Spec{Template: tmpl, Points: points, Trials: trials}
}

// unsharded runs the spec's whole grid through the plain runner — the
// reference a driven campaign must reproduce bit for bit.
func unsharded(t *testing.T, spec Spec) *campaign.Summary {
	t.Helper()
	s := spec.Template.CloneEmpty()
	err := runner.RunSweep(context.Background(), spec.Points,
		runner.SweepPlan{Trials: spec.Trials, Workers: 2},
		func(p, tr int, m sim.Metrics) error { return s.Points[p].Collector.Add(tr, m) })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cellHook adapts a per-cell callback to the fold-side chaos seam, the
// point where a shard's folded cell count is known.
func cellHook(f func(shard, attempt, done int) error) *ChaosHooks {
	return &ChaosHooks{Cell: func(_ context.Context, shard, attempt, done int) error {
		return f(shard, attempt, done)
	}}
}

// assertSameSummaries requires got's per-point summaries to be
// bit-identical to want's (float-exact stats.Summary equality).
func assertSameSummaries(t *testing.T, got, want *campaign.Summary) {
	t.Helper()
	if got.Identity() != want.Identity() {
		t.Fatalf("identity diverged:\n got %q\nwant %q", got.Identity(), want.Identity())
	}
	for p := range want.Points {
		g, w := got.Points[p].Collector, want.Points[p].Collector
		if g.Trials() != w.Trials() {
			t.Fatalf("point %d: %d trials, want %d", p, g.Trials(), w.Trials())
		}
		if g.Slots() != w.Slots() || g.MaxEnergy() != w.MaxEnergy() ||
			g.SourceEnergy() != w.SourceEnergy() || g.MeanEnergy() != w.MeanEnergy() ||
			g.EveEnergy() != w.EveEnergy() || g.AllInformed() != w.AllInformed() {
			t.Errorf("point %d: driven summaries diverge from the unsharded run", p)
		}
		if g.Invariants() != w.Invariants() {
			t.Errorf("point %d: invariant counts diverge", p)
		}
	}
}

// A driven campaign must reproduce the unsharded run exactly, for k
// both below and above the point count.
func TestDriveMatchesUnsharded(t *testing.T) {
	spec := testSpec(6)
	want := unsharded(t, spec)
	for _, k := range []int{1, 3} {
		merged, err := Run(context.Background(), spec, Options{
			Shards: k, Workers: 2, Dir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		assertSameSummaries(t, merged, want)
	}
}

// The acceptance scenario: a k=3 driven campaign with one shard killed
// mid-run, resumed, must merge bit-identically to the unsharded run —
// and the resumed attempt must pick up at the crashed shard's next
// undone cell, not from scratch.
func TestDriveCrashResumeBitIdentical(t *testing.T) {
	spec := testSpec(6)
	want := unsharded(t, spec)
	dir := t.TempDir()

	boom := fmt.Errorf("injected worker crash")
	_, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: dir,
		Chaos: cellHook(func(shard, attempt, done int) error {
			if shard == 1 && done == 2 {
				return boom
			}
			return nil
		}),
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1/3") {
		t.Fatalf("err = %v, want shard 1/3 failure", err)
	}

	var mu sync.Mutex
	var resumedAt = -1
	merged, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: dir, Resume: true,
		Progress: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Kind == EventStart && ev.Shard == 1 {
				resumedAt = ev.Done
			}
		},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumedAt != 2 {
		t.Errorf("shard 1 resumed at %d cells, want 2 (its checkpoint)", resumedAt)
	}
	assertSameSummaries(t, merged, want)
}

// Bounded retries must resume a transiently failing shard from its
// checkpoint within one Run call.
func TestDriveRetryResumesFromCheckpoint(t *testing.T) {
	spec := testSpec(6)
	want := unsharded(t, spec)

	var mu sync.Mutex
	starts := map[int][]int{} // attempt → Done at start, shard 1 only
	merged, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: t.TempDir(), Retries: 1,
		Chaos: cellHook(func(shard, attempt, done int) error {
			if shard == 1 && attempt == 0 && done == 2 {
				return fmt.Errorf("transient crash")
			}
			return nil
		}),
		Progress: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Kind == EventStart && ev.Shard == 1 {
				starts[ev.Attempt] = append(starts[ev.Attempt], ev.Done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := starts[1]; len(got) != 1 || got[0] != 2 {
		t.Errorf("shard 1 attempt 1 started at %v cells, want [2] (checkpoint resume, not restart)", got)
	}
	assertSameSummaries(t, merged, want)
}

// A persistently failing shard must exhaust its retries and surface the
// underlying error; completed cells stay checkpointed for -resume.
func TestDriveBoundedRetries(t *testing.T) {
	spec := testSpec(4)
	attempts := 0
	var mu sync.Mutex
	_, err := Run(context.Background(), spec, Options{
		Shards: 2, Workers: 1, Dir: t.TempDir(), Retries: 2,
		Chaos: cellHook(func(shard, attempt, done int) error {
			if shard == 0 {
				mu.Lock()
				attempts = max(attempts, attempt+1)
				mu.Unlock()
				return fmt.Errorf("permanent failure")
			}
			return nil
		}),
	})
	if err == nil || !strings.Contains(err.Error(), "after 3 attempt(s)") {
		t.Fatalf("err = %v, want a 3-attempt failure", err)
	}
	if attempts != 3 {
		t.Errorf("shard 0 ran %d attempts, want 3", attempts)
	}
}

// Without Resume, a directory already holding campaign files must be
// refused — silently overwriting a half-finished campaign loses work.
func TestDriveRefusesDirtyDirWithoutResume(t *testing.T) {
	spec := testSpec(2)
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Shards: 2, Workers: 1, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), spec, Options{Shards: 2, Workers: 1, Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "already holds campaign files") {
		t.Errorf("err = %v, want a dirty-directory refusal", err)
	}
	// With Resume the completed campaign just re-merges.
	merged, err := Run(context.Background(), spec, Options{Shards: 2, Workers: 1, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSummaries(t, merged, unsharded(t, spec))
}

// Artifacts in the campaign directory that belong to a different
// campaign must be a hard error on resume, not a silent re-run.
func TestDriveResumeRefusesForeignArtifacts(t *testing.T) {
	spec := testSpec(3)
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Shards: 2, Workers: 1, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	other := testSpec(3)
	other.Template.Seed++
	for i, p := range other.Points {
		p.Seed++
		other.Points[i] = p
	}
	_, err := Run(context.Background(), other, Options{Shards: 2, Workers: 1, Dir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("err = %v, want a different-campaign refusal", err)
	}
}

// A foreign checkpoint is deterministic — resuming must fail
// immediately with the identity mismatch instead of burning retries on
// replays of the same refusal.
func TestDriveForeignCheckpointFailsWithoutRetries(t *testing.T) {
	spec := testSpec(4)
	dir := t.TempDir()

	// Leave a checkpoint behind by crashing shard 0 mid-run.
	_, err := Run(context.Background(), spec, Options{
		Shards: 2, Workers: 1, Dir: dir,
		Chaos: cellHook(func(shard, attempt, done int) error {
			if shard == 0 && done == 1 {
				return fmt.Errorf("injected crash")
			}
			return nil
		}),
	})
	if err == nil {
		t.Fatal("seed crash did not fail")
	}

	other := testSpec(4)
	other.Template.Seed++
	for i := range other.Points {
		other.Points[i].Seed++
	}
	retries := 0
	var mu sync.Mutex
	_, err = Run(context.Background(), other, Options{
		Shards: 2, Workers: 1, Dir: dir, Resume: true, Retries: 3,
		Progress: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Kind == EventRetry {
				retries++
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("err = %v, want a different-campaign refusal", err)
	}
	if retries != 0 {
		t.Errorf("deterministic identity mismatch burned %d retries", retries)
	}
}

// shard-slice accounting: localCells must partition the grid exactly.
func TestLocalCellsPartition(t *testing.T) {
	for _, tc := range []struct{ total, k int }{{12, 3}, {13, 3}, {2, 5}, {0, 2}, {7, 1}} {
		d := &drive{opts: Options{Shards: tc.k}, grid: runner.Grid{Points: make([]sim.Config, 1), Trials: tc.total}}
		sum := 0
		for i := 0; i < tc.k; i++ {
			sum += d.localCells(i)
		}
		if sum != tc.total {
			t.Errorf("total=%d k=%d: shard cells sum to %d", tc.total, tc.k, sum)
		}
	}
}
