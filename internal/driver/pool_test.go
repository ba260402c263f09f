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
