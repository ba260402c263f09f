package driver

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"multicast/internal/cache"
	"multicast/internal/runner"
)

// cacheRun drives spec into a fresh campaign directory with the given
// schedule and cache store, returning the merged summary (and its
// serialized bytes) plus the hit/miss tallies from the progress stream.
func cacheRun(t *testing.T, spec Spec, sched Schedule, store *cache.Store) (sum []byte, hits, misses int) {
	t.Helper()
	// Progress callbacks are serialized by the driver, so plain counters
	// are safe here.
	merged, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Schedule: sched, Dir: t.TempDir(), Cache: store,
		Progress: func(ev Event) {
			if ev.Kind != EventCell {
				return
			}
			switch ev.Cache {
			case CacheHit:
				hits++
			case CacheMiss:
				misses++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "merged.json")
	if err := merged.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, hits, misses
}

// The acceptance scenario: a warm identical re-run simulates zero
// cells — every cell is a cache hit — and still merges byte-identically
// to the cold run, under both schedules.
func TestDriveCacheWarmRunSimulatesNothing(t *testing.T) {
	spec := testSpec(6)
	cells := spec.Trials * len(spec.Points)
	for _, sched := range []Schedule{ScheduleStatic, ScheduleSteal} {
		t.Run(string(sched), func(t *testing.T) {
			store, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cold, hits, misses := cacheRun(t, spec, sched, store)
			if hits != 0 || misses != cells {
				t.Fatalf("cold run: %d hits, %d misses, want 0/%d", hits, misses, cells)
			}
			warm, hits, misses := cacheRun(t, spec, sched, store)
			if hits != cells || misses != 0 {
				t.Fatalf("warm run: %d hits, %d misses, want %d/0", hits, misses, cells)
			}
			if !bytes.Equal(cold, warm) {
				t.Fatal("warm merged summary is not byte-identical to the cold run")
			}
		})
	}
}

// Extending a sweep reuses every already-computed cell: raising Trials
// from 6 to 9 over the same cache simulates only the 6 new cells, and
// the merged result still matches the unsharded reference for the
// extended spec.
func TestDriveCacheExtendedSweepSimulatesOnlyNewCells(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec6 := testSpec(6)
	if _, _, misses := cacheRun(t, spec6, ScheduleStatic, store); misses != 12 {
		t.Fatalf("cold run: %d misses, want 12", misses)
	}

	spec9 := testSpec(9)
	want := unsharded(t, spec9)
	merged, err := Run(context.Background(), spec9, Options{
		Shards: 3, Workers: 2, Dir: t.TempDir(), Cache: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSummaries(t, merged, want)

	// Re-count through the progress stream: a fresh drive of spec9 now
	// hits all 18 cells.
	_, hits, misses := cacheRun(t, spec9, ScheduleSteal, store)
	if hits != 18 || misses != 0 {
		t.Fatalf("re-drive of extended spec: %d hits, %d misses, want 18/0", hits, misses)
	}
}

// A corrupt cache entry is silently a miss: the damaged cell is
// re-simulated (and re-stored), the others replay, and the merged
// summary stays byte-identical.
func TestDriveCacheCorruptEntryResimulated(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6)
	cold, _, _ := cacheRun(t, spec, ScheduleStatic, store)

	// Damage cell 0's checksum — an unambiguous miss.
	grid, err := runner.NewGrid(spec.Points, spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	tamperRecord(t, store, cache.Key(spec.Template.Points[0].Label, spec.Template.Points[0].Workload, grid.Seed(0)))

	warm, hits, misses := cacheRun(t, spec, ScheduleSteal, store)
	if hits != 11 || misses != 1 {
		t.Fatalf("post-corruption run: %d hits, %d misses, want 11/1", hits, misses)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("re-simulated cell diverged from the cold run")
	}
	// The miss re-stored the entry: a third run hits every cell again.
	if _, hits, misses := cacheRun(t, spec, ScheduleStatic, store); hits != 12 || misses != 0 {
		t.Fatalf("third run: %d hits, %d misses, want 12/0", hits, misses)
	}
}

// tamperRecord overwrites, in place, the first checksum digit of the
// cache record a campaign will consult for key — damage to that one
// record only, where a truncation would take every later record in the
// segment with it. A record begins {"schema_version":1,"checksum":" (32
// bytes), and 'x' is never a hex digit.
func tamperRecord(t *testing.T, store *cache.Store, key string) {
	t.Helper()
	path, off, _, ok := store.Locate(key)
	if !ok {
		t.Fatalf("no cache record for key %s", key)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), off+32); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// The cache seam lives in the in-process cell loop; combining it with
// Spawn subprocesses must be refused up front, not silently ignored.
func TestDriveCacheRefusesSpawn(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2)
	_, err = Run(context.Background(), spec, Options{
		Shards: 1, Dir: t.TempDir(), Cache: store,
		Spawn: func(ctx context.Context, shard, shards int, artifact string) *exec.Cmd {
			return exec.CommandContext(ctx, "true")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "in-process") {
		t.Fatalf("err = %v, want in-process refusal", err)
	}
}
