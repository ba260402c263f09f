package runner

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/sim"
	"multicast/internal/stats"
)

func mcCore(n int, t int64) func() (protocol.Algorithm, error) {
	return func() (protocol.Algorithm, error) { return core.NewMultiCastCore(core.Sim(), n, t) }
}

func mcast(n int) func() (protocol.Algorithm, error) {
	return func() (protocol.Algorithm, error) { return core.NewMultiCast(core.Sim(), n) }
}

func baseCfg() sim.Config {
	return sim.Config{
		N: 64, Algorithm: mcast(64),
		Adversary: adversary.RandomFraction(0.3), Budget: 20_000, Seed: 7,
	}
}

// The runner must deliver exactly the serial per-seed metrics, in
// ascending trial order, whatever the worker count.
func TestRunMatchesSerialInOrder(t *testing.T) {
	cfg := baseCfg()
	const trials = 8
	want := make([]sim.Metrics, trials)
	for i := range want {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		m, err := sim.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	for _, workers := range []int{1, 2, 5} {
		var got []sim.Metrics
		var order []int
		err := Run(context.Background(), cfg, SweepPlan{Trials: trials, Workers: workers},
			func(trial int, m sim.Metrics) error {
				order = append(order, trial)
				got = append(got, m)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != trials {
			t.Fatalf("workers=%d: %d trials delivered, want %d", workers, len(got), trials)
		}
		for i := range got {
			if order[i] != i {
				t.Fatalf("workers=%d: sink order %v not ascending", workers, order)
			}
			if got[i] != want[i] {
				t.Fatalf("workers=%d trial %d: %+v != serial %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := sim.Config{N: 64, Algorithm: mcCore(64, 0)}
	nop := func(int, sim.Metrics) error { return nil }
	if err := Run(context.Background(), cfg, SweepPlan{Trials: 0}, nop); err == nil {
		t.Error("accepted zero trials")
	}
	for _, s := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}} {
		if err := Run(context.Background(), cfg, SweepPlan{Trials: 4, Shard: s}, nop); err == nil {
			t.Errorf("accepted shard %+v", s)
		}
	}
}

func TestRunEmptyShard(t *testing.T) {
	called := false
	err := Run(context.Background(), baseCfg(), SweepPlan{Trials: 2, Shard: Shard{Index: 5, Count: 7}},
		func(int, sim.Metrics) error { called = true; return nil })
	if err != nil || called {
		t.Fatalf("empty shard: err=%v called=%v", err, called)
	}
}

// Shard determinism: for any partition into k shards, each run with its
// own worker count, the merged summaries are bit-identical to the
// unsharded run's — the trial-layer extension of the engine-equivalence
// philosophy. Also round-trips every shard through JSON, the
// cross-machine path.
func TestShardMergeBitIdentical(t *testing.T) {
	cfg := baseCfg()
	const trials = 21
	whole := NewCollector()
	if err := Run(context.Background(), cfg, SweepPlan{Trials: trials, Workers: 3}, whole.Add); err != nil {
		t.Fatal(err)
	}
	type summaries struct {
		slots, maxE, srcE, meanE, eveE, informed stats.Summary
	}
	wholeSum := summaries{
		whole.Slots(), whole.MaxEnergy(), whole.SourceEnergy(),
		whole.MeanEnergy(), whole.EveEnergy(), whole.AllInformed(),
	}
	for _, k := range []int{1, 2, 3, 7} {
		merged := NewCollector()
		for i := 0; i < k; i++ {
			shard := NewCollector()
			err := Run(context.Background(), cfg,
				SweepPlan{Trials: trials, Shard: Shard{Index: i, Count: k}, Workers: i%3 + 1},
				shard.Add)
			if err != nil {
				t.Fatalf("k=%d shard %d: %v", k, i, err)
			}
			// Cross-machine path: shard → JSON → merge.
			data, err := json.Marshal(shard)
			if err != nil {
				t.Fatalf("k=%d shard %d: marshal: %v", k, i, err)
			}
			restored := NewCollector()
			if err := json.Unmarshal(data, restored); err != nil {
				t.Fatalf("k=%d shard %d: unmarshal: %v", k, i, err)
			}
			merged.Merge(restored)
		}
		if merged.Trials() != trials {
			t.Fatalf("k=%d: merged %d trials, want %d", k, merged.Trials(), trials)
		}
		got := summaries{
			merged.Slots(), merged.MaxEnergy(), merged.SourceEnergy(),
			merged.MeanEnergy(), merged.EveEnergy(), merged.AllInformed(),
		}
		if got != wholeSum {
			t.Errorf("k=%d: merged summaries diverge from unsharded run:\n got %+v\nwant %+v",
				k, got, wholeSum)
		}
		if merged.Invariants() != whole.Invariants() {
			t.Errorf("k=%d: invariant counts diverge", k)
		}
	}
}

// A failing trial mid-batch must abort promptly: the error reported is
// the first in trial order, and the runner does not drain the queue.
func TestFirstErrorAbortsWithoutDraining(t *testing.T) {
	const trials = 500
	var started atomic.Int64
	cfg := sim.Config{
		N: 64,
		Algorithm: func() (protocol.Algorithm, error) {
			started.Add(1)
			return core.NewMultiCastCore(core.Sim(), 64, 1<<40)
		},
		// A full burst against an unbounded budget blocks MultiCastCore
		// past any horizon, so every trial fails at MaxSlots.
		Adversary: adversary.FullBurst(0), Budget: 1 << 40,
		Seed: 1, MaxSlots: 2000,
	}
	var delivered int
	err := Run(context.Background(), cfg, SweepPlan{Trials: trials, Workers: 4},
		func(int, sim.Metrics) error { delivered++; return nil })
	if !errors.Is(err, sim.ErrMaxSlots) {
		t.Fatalf("err = %v, want ErrMaxSlots", err)
	}
	if !strings.Contains(err.Error(), "trial 0 (seed 1)") {
		t.Errorf("error %q does not name the first failing trial in seed order", err)
	}
	if delivered != 0 {
		t.Errorf("%d results delivered after first-trial failure", delivered)
	}
	if n := started.Load(); n >= trials/2 {
		t.Errorf("runner drained the queue: %d of %d trials started after the failure", n, trials)
	}
}

// A sink error behaves like a trial failure: abort, don't drain.
func TestSinkErrorAborts(t *testing.T) {
	const trials = 400
	var started atomic.Int64
	cfg := baseCfg()
	inner := cfg.Algorithm
	cfg.Algorithm = func() (protocol.Algorithm, error) {
		started.Add(1)
		return inner()
	}
	sinkErr := errors.New("sink full")
	var delivered []int
	err := Run(context.Background(), cfg, SweepPlan{Trials: trials, Workers: 4},
		func(trial int, _ sim.Metrics) error {
			if trial == 8 {
				return sinkErr
			}
			delivered = append(delivered, trial)
			return nil
		})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if len(delivered) != 8 {
		t.Errorf("delivered %v, want exactly trials 0..7", delivered)
	}
	if n := started.Load(); n >= trials/2 {
		t.Errorf("runner drained the queue after sink error: %d trials started", n)
	}
}

// Cancelling the context mid-batch must interrupt in-flight executions
// (which would otherwise run ~10⁸ slots each) and return promptly.
func TestContextCancelInterruptsInFlight(t *testing.T) {
	cfg := sim.Config{
		N: 64, Algorithm: mcCore(64, 1<<40),
		Adversary: adversary.FullBurst(0), Budget: 1 << 40,
		Seed: 1, MaxSlots: 1 << 27,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	startedAt := time.Now()
	err := Run(ctx, cfg, SweepPlan{Trials: 100, Workers: 2},
		func(int, sim.Metrics) error { return nil })
	elapsed := time.Since(startedAt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: without the interrupt hook each in-flight trial
	// would grind through 2²⁷ jammed slots (tens of seconds).
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — in-flight trials were not interrupted", elapsed)
	}
}

func TestCollectorJSONRejectsInconsistent(t *testing.T) {
	c := NewCollector()
	if err := c.Add(0, sim.Metrics{Slots: 10, MaxNodeEnergy: 3, MeanNodeEnergy: 1.5}); err != nil {
		t.Fatal(err)
	}
	// A dropped (NaN) mean energy keeps count + dropped == trials.
	if err := c.Add(1, sim.Metrics{Slots: 11, MeanNodeEnergy: math.NaN()}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var d Collector
	if err := json.Unmarshal(data, &d); err != nil || d.Trials() != 2 {
		t.Fatalf("consistent state with a dropped sample refused: %v", err)
	}
	mean := `"mean_node_energy":{"count":1,"dropped":1,`
	if !strings.Contains(string(data), mean) {
		t.Fatalf("encoding lacks %s: %s", mean, data)
	}
	for _, corrupt := range []struct{ old, new string }{
		{`"trials":2`, `"trials":5`},                                         // every accumulator disagrees
		{`"trials":2`, `"trials":-1`},                                        // negative
		{mean, `"mean_node_energy":{"count":1,`},                             // a trial neither counted nor dropped
		{mean, `"mean_node_energy":{"count":1,"dropped":2,`},                 // a trial dropped twice
		{`"eve_energy":{"count":2,`, `"eve_energy":{"count":2,"dropped":1,`}, // one accumulator over
		{`"slots":{"count":2,`, `"slots":{"count":3,`},                       // slots over
	} {
		bad := strings.Replace(string(data), corrupt.old, corrupt.new, 1)
		if bad == string(data) {
			t.Fatalf("substitution %q did not apply", corrupt.old)
		}
		var d Collector
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Errorf("accepted collector state %s", bad)
		}
	}
}

// BenchmarkRunTrialsParallel measures trial-level scaling across cores
// (successor of the old sim.RunTrials benchmark).
func BenchmarkRunTrialsParallel(b *testing.B) {
	const n = 128
	cfg := sim.Config{
		N:         n,
		Algorithm: mcast(n),
		Adversary: adversary.FullBurst(0),
		Budget:    20_000,
		Seed:      1,
	}
	for i := 0; i < b.N; i++ {
		err := Run(context.Background(), cfg, SweepPlan{Trials: 16}, func(int, sim.Metrics) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
