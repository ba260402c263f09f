package driver

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/cache"
	"multicast/internal/campaign"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

// summaryBytes renders a summary exactly as Write persists it — the
// byte-identity the pool tests compare.
func summaryBytes(t testing.TB, s *campaign.Summary) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "summary.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shardMergeBytes is the cross-machine reference for a driven campaign
// at k shards: every `-shard i/k` slice run through runner.RunSweep into
// its own artifact, then merged — the bytes a driven campaign must
// reproduce exactly.
func shardMergeBytes(t testing.TB, spec Spec, k int) []byte {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, k)
	for i := range paths {
		s := spec.Template.CloneEmpty()
		s.ShardIndex, s.ShardCount = i, k
		err := runner.RunSweep(context.Background(), spec.Points,
			runner.SweepPlan{Trials: spec.Trials, Shard: runner.Shard{Index: i, Count: k}, Workers: 2},
			func(p, tr int, m sim.Metrics) error { return s.Points[p].Collector.Add(tr, m) })
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		if err := s.Write(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := campaign.MergeFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	return summaryBytes(t, merged)
}

// The acceptance wall: for k both below and above the point count, a
// driven campaign merges byte-identically to the shard-and-merge
// reference (and, at k=1, to the unsharded artifact) whatever the
// worker count — the pool changes who computes a cell, never where it
// lands — and a mid-campaign kill resumed is byte-identical too.
func TestStealMergeIdentity(t *testing.T) {
	spec := testSpec(6)
	want := unsharded(t, spec)
	wantBytes := summaryBytes(t, want)

	for _, k := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ref := shardMergeBytes(t, spec, k)
			sum, err := Run(context.Background(), spec, Options{
				Shards: k, Workers: 2, Dir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := summaryBytes(t, sum); !bytes.Equal(got, ref) {
				t.Errorf("driven artifact differs from the shard-and-merge reference at k=%d", k)
			}
			if k == 1 && !bytes.Equal(ref, wantBytes) {
				t.Errorf("k=1 artifact differs from the unsharded artifact")
			}
			assertSameSummaries(t, sum, want)

			// Mid-campaign kill: a fold-side crash stops its shard, the
			// attempt fails, and -resume finishes from the checkpoints,
			// still byte-identical.
			dir := t.TempDir()
			_, err = Run(context.Background(), spec, Options{
				Shards: k, Workers: 1, Dir: dir, Chaos: cellHook(crashShardAt(0, 2)),
			})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard 0/%d failed after 1 attempt(s)", k)) {
				t.Fatalf("kill run err = %v, want shard 0/%d failing the campaign", err, k)
			}
			resumed, err := Run(context.Background(), spec, Options{
				Shards: k, Workers: 1, Dir: dir, Resume: true,
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := summaryBytes(t, resumed); !bytes.Equal(got, ref) {
				t.Errorf("killed+resumed artifact differs from the shard-and-merge reference at k=%d", k)
			}
		})
	}
}

// Sidecars written before the pool became the only path — by the
// static schedule (no "schedule" key) and by the steal schedule
// ("schedule":"steal") — must resume at their recorded prefixes and
// finish byte-identical to an uninterrupted run. The fixtures are
// testSpec(6) at k=3 with shard s killed after s+1 folded cells.
func TestDriveResumesOldSidecars(t *testing.T) {
	spec := testSpec(6)
	const k = 3
	clean, err := Run(context.Background(), spec, Options{Shards: k, Workers: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := summaryBytes(t, clean)
	if !bytes.Equal(cleanBytes, shardMergeBytes(t, spec, k)) {
		t.Fatal("clean driven run differs from the shard-and-merge reference")
	}

	for _, writer := range []string{"static", "steal"} {
		t.Run(writer, func(t *testing.T) {
			dir := t.TempDir()
			for i := 0; i < k; i++ {
				data, err := os.ReadFile(filepath.Join("testdata", "sidecars", writer, fmt.Sprintf("shard-%d.ckpt.json", i)))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(CheckpointPath(dir, i), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var mu sync.Mutex
			resumedAt := map[int]int{}
			sum, err := Run(context.Background(), spec, Options{
				Shards: k, Workers: 2, Dir: dir, Resume: true,
				Progress: func(ev Event) {
					mu.Lock()
					defer mu.Unlock()
					if ev.Kind == EventStart {
						resumedAt[ev.Shard] = ev.Done
					}
				},
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			for s := 0; s < k; s++ {
				if resumedAt[s] != s+1 {
					t.Errorf("shard %d resumed at %d cells, want %d (its sidecar)", s, resumedAt[s], s+1)
				}
			}
			if got := summaryBytes(t, sum); !bytes.Equal(got, cleanBytes) {
				t.Errorf("resume from %s sidecars diverges from a clean k=%d run", writer, k)
			}
		})
	}
}

// cheapSpec builds a campaign of points×trials short cells: n=16,
// budget 500, each point its own adversary fraction. A miss simulates
// in about 0.4 ms and a hit takes microseconds, so a worker's batches
// hold runs of hits, each closed by the miss that follows it, if any.
func cheapSpec(points, trials int) Spec {
	pts := make([]sim.Config, points)
	meta := make([]campaign.Point, points)
	for p := range pts {
		frac := 0.1 * float64(p+1)
		pts[p] = sim.Config{N: 16, Algorithm: mcast(16), Adversary: adversary.RandomFraction(frac), Budget: 500, Seed: 11}
		meta[p] = campaign.Point{Label: fmt.Sprintf("p%d", p), Workload: fmt.Sprintf("mcast n=16 adv=random frac=%.1f budget=500 seed=11", frac)}
	}
	return Spec{Template: campaign.New("cheap-sweep", 11, trials, meta), Points: pts, Trials: trials}
}

// storeCells computes every cell of the spec's points for which keep
// returns true and puts it in store, outside the driver.
func storeCells(t testing.TB, spec Spec, store *cache.Store, keep func(point int) bool) {
	t.Helper()
	grid, err := runner.NewGrid(spec.Points, spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	ex := sim.NewExecutor()
	for g := 0; g < grid.Total(); g++ {
		p, _ := grid.Split(g)
		if !keep(p) {
			continue
		}
		m, err := grid.RunCell(nil, ex, g)
		if err != nil {
			t.Fatal(err)
		}
		pt := spec.Template.Points[p]
		if err := store.Put(cache.Key(pt.Label, pt.Workload, grid.Seed(g)), m); err != nil {
			t.Fatal(err)
		}
	}
}

// With every other point's cells cached, runs of cheap hits and runs of
// misses alternate along the grid, and workers hand over batches that
// mix both. Whatever the batches, each shard folds its cells in order:
// the artifacts equal the shard-and-merge reference, each shard's
// EventCell Done counts run 1..local, and exactly the pre-stored cells
// are marked hits. A warm campaign crashed mid-shard, while batches are
// in flight, resumes to the same bytes.
func TestPoolMixedHitsAndMisses(t *testing.T) {
	spec := cheapSpec(4, 24)
	stored := func(p int) bool { return p%2 == 0 }
	for _, k := range []int{1, 3} {
		ref := shardMergeBytes(t, spec, k)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("k=%d/workers=%d", k, workers), func(t *testing.T) {
				store, err := cache.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				storeCells(t, spec, store, stored)

				// Progress callbacks are serialized by the driver.
				done := make([]int, k)
				sum, err := Run(context.Background(), spec, Options{
					Shards: k, Workers: workers, Dir: t.TempDir(), Cache: store,
					CheckpointEvery: spec.Trials,
					Progress: func(ev Event) {
						if ev.Kind != EventCell {
							return
						}
						s := ev.Shard
						if ev.Done != done[s]+1 {
							t.Errorf("shard %d: EventCell Done %d after %d", s, ev.Done, done[s])
						}
						done[s] = ev.Done
						p := (s + (ev.Done-1)*k) / spec.Trials
						want := CacheMiss
						if stored(p) {
							want = CacheHit
						}
						if ev.Cache != want {
							t.Errorf("shard %d cell %d (point %d): cache %q, want %q", s, ev.Done, p, ev.Cache, want)
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				for s, n := range done {
					if local := (runner.Shard{Index: s, Count: k}).Cells(spec.Trials * len(spec.Points)); n != local {
						t.Errorf("shard %d folded %d cells, want %d", s, n, local)
					}
				}
				if got := summaryBytes(t, sum); !bytes.Equal(got, ref) {
					t.Errorf("mixed hit/miss campaign differs from the shard-and-merge reference")
				}

				// The crash column: the cache is warm now, so every cell is
				// a hit, and shard 0 fails mid-slice while other batches
				// are still on their way to the fold.
				dir := t.TempDir()
				crashAt := spec.Trials * len(spec.Points) / k / 2
				_, err = Run(context.Background(), spec, Options{
					Shards: k, Workers: workers, Dir: dir, Cache: store,
					Chaos: cellHook(crashShardAt(0, crashAt)),
				})
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard 0/%d failed", k)) {
					t.Fatalf("crash run err = %v, want shard 0/%d failing the campaign", err, k)
				}
				resumed, err := Run(context.Background(), spec, Options{
					Shards: k, Workers: workers, Dir: dir, Cache: store, Resume: true,
				})
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if got := summaryBytes(t, resumed); !bytes.Equal(got, ref) {
					t.Errorf("crashed+resumed warm campaign differs from the shard-and-merge reference")
				}
			})
		}
	}
}

// BenchmarkDriveWarm drives a warm-cache campaign of 4 points × 500
// trials on one shard with 2 workers and one checkpoint flush: every
// cell is a cache hit, so the pool's handoff to the fold stage, not the
// engine, bounds the cells/s it reports.
func BenchmarkDriveWarm(b *testing.B) {
	spec := cheapSpec(4, 500)
	cells := spec.Trials * len(spec.Points)
	store, err := cache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	storeCells(b, spec, store, func(int) bool { return true })
	root := b.TempDir()
	opts := Options{Shards: 1, Workers: 2, Cache: store, CheckpointEvery: cells}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Dir = filepath.Join(root, fmt.Sprint(i))
		if _, err := Run(context.Background(), spec, opts); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.RemoveAll(opts.Dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*cells)/b.Elapsed().Seconds(), "cells/s")
}
