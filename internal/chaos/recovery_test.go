package chaos

// The headline chaos deliverables: TestChaosRecoveryMatrix pins, for
// every fault class at k ∈ {1, 3} — with and without a pre-warmed,
// deliberately tampered result cache — that a resumed or retried
// campaign merges byte-identically to a fault-free run and that
// replaying the same schedule yields an identical fault event log;
// FuzzChaosSchedule holds the same invariant under randomized seeded
// schedules.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"multicast/internal/adversary"
	"multicast/internal/cache"
	"multicast/internal/campaign"
	"multicast/internal/core"
	"multicast/internal/driver"
	"multicast/internal/protocol"
	"multicast/internal/rng"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

const matrixTrials = 6 // 2 points × 6 trials = 12 grid cells

func mcast(n int) func() (protocol.Algorithm, error) {
	return func() (protocol.Algorithm, error) { return core.NewMultiCast(core.Sim(), n) }
}

// testSpec mirrors the driver tests' two-point campaign, so cross-point
// or cross-shard mixups cannot cancel out.
func testSpec() driver.Spec {
	points := []sim.Config{
		{N: 32, Algorithm: mcast(32), Adversary: adversary.RandomFraction(0.4), Budget: 10_000, Seed: 7},
		{N: 64, Algorithm: mcast(64), Adversary: adversary.FullBurst(0), Budget: 15_000, Seed: 7},
	}
	tmpl := campaign.New("test-sweep", 7, matrixTrials, []campaign.Point{
		{Label: "n=32", Workload: "mcast n=32 adv=random seed=7"},
		{Label: "n=64", Workload: "mcast n=64 adv=burst seed=7"},
	})
	return driver.Spec{Template: tmpl, Points: points, Trials: matrixTrials}
}

// summaryBytes renders a summary exactly as Write persists it — the
// byte-identity the matrix compares.
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

// unshardedReference is the plain runner's summary, computed once: the
// ground truth every recovered campaign must reproduce stat for stat.
var (
	refOnce sync.Once
	refSum  *campaign.Summary
	refErr  error
)

func unshardedReference(t testing.TB) *campaign.Summary {
	t.Helper()
	refOnce.Do(func() {
		spec := testSpec()
		s := spec.Template.CloneEmpty()
		refErr = runner.RunSweep(context.Background(), spec.Points,
			runner.SweepPlan{Trials: spec.Trials, Workers: 2},
			func(p, tr int, m sim.Metrics) error { return s.Points[p].Collector.Add(tr, m) })
		refSum = s
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refSum
}

// cleanDrivenBytes is the artifact of a fault-free driven run at k
// shards, computed once per k: recovery must be byte-identical to it —
// injected faults may never leave a trace in the merged artifact. (The
// artifact of a k-way merge differs from the unsharded file only in
// benign sample order and float-summation rounding of the raw Welford
// state; the derived stats are bit-identical across k, which
// assertSameStats pins against the unsharded reference.)
var (
	cleanMu    sync.Mutex
	cleanBytes = map[int][]byte{}
)

func cleanDrivenBytes(t testing.TB, k int) []byte {
	t.Helper()
	cleanMu.Lock()
	defer cleanMu.Unlock()
	if data, ok := cleanBytes[k]; ok {
		return data
	}
	dir, err := os.MkdirTemp("", "chaos-clean-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sum, err := driver.Run(context.Background(), testSpec(), driver.Options{
		Shards: k, Workers: 2, Dir: dir,
	})
	if err != nil {
		t.Fatalf("clean driven run at k=%d: %v", k, err)
	}
	data := summaryBytes(t, sum)
	cleanBytes[k] = data
	return data
}

// assertSameStats requires got's derived per-point statistics to be
// bit-identical to want's — the repo's cross-k determinism contract.
func assertSameStats(t testing.TB, got, want *campaign.Summary) {
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
			t.Errorf("point %d: recovered summary stats diverge from the unsharded run", p)
		}
		if g.Invariants() != w.Invariants() {
			t.Errorf("point %d: invariant counts diverge", p)
		}
	}
}

// warmTamperedCache returns a result cache pre-warmed by a clean k-way
// driven run and then damaged — one record's checksum overwritten — the
// shape a faulted campaign meets in the field: mostly replayable,
// partly broken. With cached false it returns nil, the matrix's
// cache-free column.
func warmTamperedCache(t *testing.T, k int, cached bool) *cache.Store {
	t.Helper()
	if !cached {
		return nil
	}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	if _, err := driver.Run(context.Background(), spec, driver.Options{
		Shards: k, Workers: 2, Dir: t.TempDir(), Cache: store,
	}); err != nil {
		t.Fatalf("cache warm-up run: %v", err)
	}
	grid, err := runner.NewGrid(spec.Points, spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	tamperRecord(t, store, cache.Key(spec.Template.Points[0].Label, spec.Template.Points[0].Workload, grid.Seed(0)))
	return store
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

func wantNil(t *testing.T, k int, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("chaos run: %v, want in-run recovery", err)
	}
}

func wantIs(target error) func(*testing.T, int, error) {
	return func(t *testing.T, k int, err error) {
		t.Helper()
		if !errors.Is(err, target) {
			t.Fatalf("chaos run err = %v, want errors.Is(%v)", err, target)
		}
	}
}

func TestChaosRecoveryMatrix(t *testing.T) {
	want := unshardedReference(t)
	rows := []struct {
		name    string
		retries int
		timeout time.Duration
		faults  func(shard, k int) []Rule
		check   func(t *testing.T, k int, err error) // chaos-run outcome
		drill   func(t *testing.T, dir string, shard int)
	}{
		{
			// The worker crashes mid-run; the driver's in-run retry resumes
			// it from its checkpoint without any operator involvement.
			name:    "crash-retried-in-run",
			retries: 1,
			faults: func(s, k int) []Rule {
				return []Rule{{Kind: KindCrash, Shard: s, Cell: 2, Attempt: 0, From: -1}}
			},
			check: wantNil,
		},
		{
			// No retry budget: the crash fails the campaign and a separate
			// resume run completes it.
			name: "crash-resume",
			faults: func(s, k int) []Rule {
				return []Rule{{Kind: KindCrash, Shard: s, Cell: 2, Attempt: 0, From: -1}}
			},
			check: wantIs(driver.ErrInjected),
		},
		{
			// A flush torn inside the temp file never renames, so the
			// previous sidecar survives and the in-run retry resumes from
			// it.
			name:    "torn-flush-retried-in-run",
			retries: 1,
			faults: func(s, k int) []Rule {
				return []Rule{{Kind: KindTornFlush, Shard: s, Cell: 2, Attempt: 0, From: -1}}
			},
			check: wantNil,
		},
		{
			// A sidecar torn in place is terminal — retries must not replay
			// the refusal — and the documented drill (remove the sidecar,
			// resume) regenerates the shard from scratch.
			name:    "corrupt-checkpoint-terminal",
			retries: 2,
			faults: func(s, k int) []Rule {
				return []Rule{{Kind: KindCorruptCheckpoint, Shard: s, Cell: 2, Attempt: 0, From: -1}}
			},
			check: wantIs(campaign.ErrCorruptCheckpoint),
			drill: func(t *testing.T, dir string, shard int) {
				if err := os.Remove(driver.CheckpointPath(dir, shard)); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// Silent truncation: the worker believes it succeeded; the
			// artifact checksum catches it at gather, and resume discards
			// and regenerates the shard.
			name: "truncate-artifact",
			faults: func(s, k int) []Rule {
				return []Rule{{Kind: KindTruncateArtifact, Shard: s, Cell: -1, Attempt: 0, From: -1}}
			},
			check: wantIs(campaign.ErrCorruptArtifact),
		},
		{
			// A single silently flipped bit is likewise caught at gather by
			// the checksum (seed 7 lands the flip on significant bytes for
			// both k; a whitespace landing would make the run succeed
			// harmlessly, which wantIs would flag so the seed can be
			// repinned).
			name: "bit-flip-artifact",
			faults: func(s, k int) []Rule {
				return []Rule{{Kind: KindBitFlipArtifact, Shard: s, Cell: -1, Attempt: 0, From: -1}}
			},
			check: wantIs(campaign.ErrCorruptArtifact),
		},
		{
			// Gather misdelivers one shard's artifact into another's slot:
			// the merge refuses the duplicate, and resume discards the
			// misdelivered copy and reruns the true shard. At k=1 there is
			// no second shard, so the rule self-disables and the campaign
			// simply succeeds.
			name: "duplicate-shard",
			faults: func(s, k int) []Rule {
				if k == 1 {
					return []Rule{{Kind: KindDuplicateShard, Shard: 0, Cell: -1, Attempt: 0, From: -1}}
				}
				return []Rule{{Kind: KindDuplicateShard, Shard: s, Cell: -1, Attempt: 0, From: 0}}
			},
			check: func(t *testing.T, k int, err error) {
				t.Helper()
				if k == 1 {
					wantNil(t, k, err)
					return
				}
				if err == nil || !strings.Contains(err.Error(), "duplicates shard") {
					t.Fatalf("chaos run err = %v, want duplicate-shard merge refusal", err)
				}
			},
		},
		{
			// A stalled worker hangs until the run deadline cancels it —
			// the driver -timeout path — then resume finishes from its
			// checkpoint.
			name:    "stall-timeout",
			timeout: 300 * time.Millisecond,
			faults: func(s, k int) []Rule {
				return []Rule{{Kind: KindStall, Shard: s, Cell: 1, Attempt: 0, From: -1}}
			},
			check: wantIs(context.DeadlineExceeded),
		},
	}

	for _, row := range rows {
		for _, k := range []int{1, 3} {
			// The cache column replays every fault class over a
			// pre-warmed result cache with one entry deliberately
			// tampered: cells replay instead of simulating (and one
			// re-simulates through the damage), yet the recovered
			// artifact must stay byte-identical to the cache-free run.
			//
			// The cells keep the `steal` segment they were named with
			// when a static column ran beside them: the one pool grew out
			// of the work-stealing pool (an idle worker takes any shard's
			// next cell), and unchanged names keep each cell's results
			// comparable with earlier runs of the matrix.
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/k=%d/steal/cache=%v", row.name, k, cached), func(t *testing.T) {
					shard := 0
					if k > 1 {
						shard = 1
					}
					store := warmTamperedCache(t, k, cached)
					plan := Plan{Seed: 7, Faults: row.faults(shard, k)}
					run := func(dir string) (*campaign.Summary, []Event, error) {
						inj, err := New(plan)
						if err != nil {
							t.Fatal(err)
						}
						ctx := context.Background()
						if row.timeout > 0 {
							var cancel context.CancelFunc
							ctx, cancel = context.WithTimeout(ctx, row.timeout)
							defer cancel()
						}
						sum, err := driver.Run(ctx, testSpec(), driver.Options{
							Shards: k, Workers: 2, Dir: dir, Retries: row.retries,
							Chaos: inj.Hooks(), Cache: store,
						})
						return sum, inj.Events(), err
					}

					dir := t.TempDir()
					sum, ev1, err1 := run(dir)
					// Replay the schedule in a fresh directory: the fault log —
					// and the outcome — must be identical.
					_, ev2, err2 := run(t.TempDir())
					if !reflect.DeepEqual(ev1, ev2) {
						t.Errorf("fault logs diverge between identical runs:\n 1: %+v\n 2: %+v", ev1, ev2)
					}
					if (err1 == nil) != (err2 == nil) {
						t.Errorf("outcomes diverge between identical runs: %v vs %v", err1, err2)
					}
					wantEvents := 1
					if row.name == "duplicate-shard" && k == 1 {
						wantEvents = 0
					}
					if len(ev1) != wantEvents {
						t.Errorf("%d fault events, want %d: %+v", len(ev1), wantEvents, ev1)
					}
					row.check(t, k, err1)

					if err1 != nil {
						if row.drill != nil {
							row.drill(t, dir, shard)
						}
						var rerr error
						sum, rerr = driver.Run(context.Background(), testSpec(), driver.Options{
							Shards: k, Workers: 2, Dir: dir, Resume: true, Cache: store,
						})
						if rerr != nil {
							t.Fatalf("recovery resume: %v", rerr)
						}
					}
					if got := summaryBytes(t, sum); !bytes.Equal(got, cleanDrivenBytes(t, k)) {
						t.Errorf("recovered merged artifact is not byte-identical to a fault-free k=%d run (%d vs %d bytes)",
							k, len(got), len(cleanDrivenBytes(t, k)))
					}
					assertSameStats(t, sum, want)
				})
			}
		}
	}
}

// FuzzChaosSchedule drives randomized seeded schedules (all fault kinds
// except stall, which needs a deadline) through the campaign and holds
// the matrix invariants: the fault log replays identically, and after bounded
// recovery the merged summary is byte-identical to the unsharded run.
func FuzzChaosSchedule(f *testing.F) {
	f.Add(uint64(1), uint(3), uint(2))
	f.Add(uint64(42), uint(1), uint(1))
	f.Add(uint64(7), uint(2), uint(3))
	f.Add(uint64(1234567), uint(3), uint(1))
	f.Add(uint64(99), uint(2), uint(2))
	f.Fuzz(func(t *testing.T, seed uint64, kIn, nIn uint) {
		k := 1 + int(kIn%3)
		nfaults := 1 + int(nIn%3)
		kinds := []Kind{KindCrash, KindTornFlush, KindCorruptCheckpoint,
			KindTruncateArtifact, KindBitFlipArtifact, KindDuplicateShard}
		src := rng.New(seed)
		faults := make([]Rule, nfaults)
		for i := range faults {
			faults[i] = Rule{
				Kind:  kinds[src.Uint64n(uint64(len(kinds)))],
				Shard: -1, Cell: -1, Attempt: 0, From: -1,
			}
		}
		plan := Plan{Seed: seed, Faults: faults}
		spec := testSpec()

		run := func(dir string) (*campaign.Summary, []byte, error) {
			inj, err := New(plan)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := driver.Run(context.Background(), spec, driver.Options{
				Shards: k, Workers: 2, Dir: dir, Retries: 1,
				Chaos: inj.Hooks(),
			})
			log, lerr := inj.Log()
			if lerr != nil {
				t.Fatal(lerr)
			}
			return sum, log, err
		}

		dir := t.TempDir()
		sum, log1, err := run(dir)
		_, log2, _ := run(t.TempDir())
		if !bytes.Equal(log1, log2) {
			t.Fatalf("fault log is not reproducible from seed %d:\n 1: %s\n 2: %s", seed, log1, log2)
		}

		// Bounded recovery: resume chaos-free, applying the generic drill
		// for terminal corrupt checkpoints.
		for attempt := 0; err != nil && attempt < 4; attempt++ {
			if errors.Is(err, campaign.ErrCorruptCheckpoint) {
				for i := 0; i < k; i++ {
					if rmErr := os.Remove(driver.CheckpointPath(dir, i)); rmErr != nil && !os.IsNotExist(rmErr) {
						t.Fatal(rmErr)
					}
				}
			}
			sum, err = driver.Run(context.Background(), spec, driver.Options{
				Shards: k, Workers: 2, Dir: dir, Resume: true,
			})
		}
		if err != nil {
			t.Fatalf("campaign never recovered from schedule %+v: %v", plan, err)
		}
		if got := summaryBytes(t, sum); !bytes.Equal(got, cleanDrivenBytes(t, k)) {
			t.Errorf("recovered artifact diverges from a fault-free k=%d run under schedule %+v\nfault log:\n%s", k, plan, log1)
		}
		assertSameStats(t, sum, unshardedReference(t))
	})
}
