package runner

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/sim"
	"multicast/internal/stats"
)

// sweepPoints builds a small three-point workload grid with distinct
// populations and adversaries, so cross-point mixups cannot cancel out.
func sweepPoints() []sim.Config {
	return []sim.Config{
		{N: 32, Algorithm: mcast(32), Adversary: adversary.RandomFraction(0.3), Budget: 10_000, Seed: 7},
		{N: 64, Algorithm: mcast(64), Adversary: adversary.FullBurst(0), Budget: 15_000, Seed: 101},
		{N: 64, Algorithm: mcCore(64, 8_000), Adversary: adversary.BlockFraction(0.5), Budget: 8_000, Seed: 3},
	}
}

// Every sweep cell must be bit-identical to the same trial run through
// the single-point runner, and cells must arrive in global grid order.
func TestSweepMatchesPerPointRuns(t *testing.T) {
	points := sweepPoints()
	const trials = 4
	want := make([][]sim.Metrics, len(points))
	for p, cfg := range points {
		ms, err := All(context.Background(), cfg, trials)
		if err != nil {
			t.Fatalf("point %d: %v", p, err)
		}
		want[p] = ms
	}
	for _, workers := range []int{1, 3} {
		var lastG = -1
		got := make([][]sim.Metrics, len(points))
		err := RunSweep(context.Background(), points, SweepPlan{Trials: trials, Workers: workers},
			func(p, tr int, m sim.Metrics) error {
				g := p*trials + tr
				if g <= lastG {
					t.Fatalf("workers=%d: cell (%d,%d) delivered out of grid order", workers, p, tr)
				}
				lastG = g
				got[p] = append(got[p], m)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for p := range points {
			if len(got[p]) != trials {
				t.Fatalf("workers=%d point %d: %d trials, want %d", workers, p, len(got[p]), trials)
			}
			for tr := range got[p] {
				if got[p][tr] != want[p][tr] {
					t.Errorf("workers=%d cell (%d,%d): sweep %+v != single-point %+v",
						workers, p, tr, got[p][tr], want[p][tr])
				}
			}
		}
	}
}

// Sweep-shard determinism (the sweep-level mirror of the PR 3
// trial-level test): shard the flattened grid k ways at mixed worker
// counts, merge the per-point collectors across shards through JSON,
// and require per-point summaries bit-identical to the unsharded sweep.
func TestSweepShardMergeBitIdentical(t *testing.T) {
	points := sweepPoints()
	const trials = 7
	collect := func() []*Collector {
		cols := make([]*Collector, len(points))
		for i := range cols {
			cols[i] = NewCollector()
		}
		return cols
	}
	whole := collect()
	err := RunSweep(context.Background(), points, SweepPlan{Trials: trials, Workers: 3},
		func(p, tr int, m sim.Metrics) error { return whole[p].Add(tr, m) })
	if err != nil {
		t.Fatal(err)
	}
	type summaries struct {
		slots, maxE, srcE, meanE, eveE, informed stats.Summary
	}
	sumOf := func(c *Collector) summaries {
		return summaries{
			c.Slots(), c.MaxEnergy(), c.SourceEnergy(),
			c.MeanEnergy(), c.EveEnergy(), c.AllInformed(),
		}
	}
	for _, k := range []int{1, 3} {
		merged := collect()
		for i := 0; i < k; i++ {
			shard := collect()
			err := RunSweep(context.Background(), points,
				SweepPlan{Trials: trials, Shard: Shard{Index: i, Count: k}, Workers: i%3 + 1},
				func(p, tr int, m sim.Metrics) error { return shard[p].Add(tr, m) })
			if err != nil {
				t.Fatalf("k=%d shard %d: %v", k, i, err)
			}
			// Cross-machine path: per-point collector → JSON → merge.
			for p := range points {
				data, err := json.Marshal(shard[p])
				if err != nil {
					t.Fatalf("k=%d shard %d point %d: marshal: %v", k, i, p, err)
				}
				restored := NewCollector()
				if err := json.Unmarshal(data, restored); err != nil {
					t.Fatalf("k=%d shard %d point %d: unmarshal: %v", k, i, p, err)
				}
				merged[p].Merge(restored)
			}
		}
		for p := range points {
			if merged[p].Trials() != trials {
				t.Fatalf("k=%d point %d: merged %d trials, want %d", k, p, merged[p].Trials(), trials)
			}
			if got, want := sumOf(merged[p]), sumOf(whole[p]); got != want {
				t.Errorf("k=%d point %d: merged summaries diverge from unsharded sweep:\n got %+v\nwant %+v",
					k, p, got, want)
			}
			if merged[p].Invariants() != whole[p].Invariants() {
				t.Errorf("k=%d point %d: invariant counts diverge", k, p)
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	nop := func(int, int, sim.Metrics) error { return nil }
	if err := RunSweep(context.Background(), nil, SweepPlan{Trials: 3}, nop); err == nil {
		t.Error("accepted an empty point list")
	}
	points := sweepPoints()[:1]
	if err := RunSweep(context.Background(), points, SweepPlan{Trials: 0}, nop); err == nil {
		t.Error("accepted zero trials per point")
	}
	bad := SweepPlan{Trials: 2, Shard: Shard{Index: 3, Count: 2}}
	if err := RunSweep(context.Background(), points, bad, nop); err == nil {
		t.Error("accepted an out-of-range shard")
	}
}

// A failing cell must surface its point and trial coordinates — an
// operator debugging a 40-point sweep needs to know which workload died.
func TestSweepErrorNamesPointAndTrial(t *testing.T) {
	points := sweepPoints()
	// Point 1 is a full burst with an enormous budget and a tiny slot
	// horizon: every one of its cells fails at MaxSlots.
	points[1].Budget = 1 << 40
	points[1].MaxSlots = 500
	err := RunSweep(context.Background(), points, SweepPlan{Trials: 2, Workers: 2},
		func(int, int, sim.Metrics) error { return nil })
	if !errors.Is(err, sim.ErrMaxSlots) {
		t.Fatalf("err = %v, want ErrMaxSlots", err)
	}
	if !strings.Contains(err.Error(), "point 1 trial 0") {
		t.Errorf("error %q does not name the first failing cell in grid order", err)
	}
}
