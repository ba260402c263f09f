package sim

import (
	"errors"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
)

// TestSlotLoopAllocFree pins the steady-state allocation rate of both
// slot loops at zero on a recycled Executor, at two node counts (n=1024
// exercises the buffer-growth paths the small case never touches). The
// workloads never halt (a budget that outlasts MaxSlots), so two runs
// differing only in MaxSlots isolate the per-slot cost: the per-trial
// allocations (algorithm instance, nodes, the ErrMaxSlots wrap) are
// identical in both and cancel in the subtraction. Full-spectrum
// jamming drives the event engine's lean step; the camper row's
// adaptive Eve puts it on its per-slot stepSlot path instead — the path
// Auto takes for adaptive adversaries.
func TestSlotLoopAllocFree(t *testing.T) {
	rows := []struct {
		name   string
		n      int
		adv    adversary.Factory
		engine Engine
	}{
		{"dense/n128", 128, adversary.FullBurst(0), EngineDense},
		{"dense/n1024", 1024, adversary.FullBurst(0), EngineDense},
		{"event/n128", 128, adversary.FullBurst(0), EngineEvent},
		{"event/n1024", 1024, adversary.FullBurst(0), EngineEvent},
		{"event-camper/n128", 128, adversary.Camper(64, 64), EngineEvent},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			n := row.n
			exec := NewExecutor()
			run := func(maxSlots int64) {
				cfg := Config{
					N: n,
					Algorithm: func() (protocol.Algorithm, error) {
						return core.NewMultiCast(core.Sim(), n)
					},
					Adversary: row.adv,
					Budget:    1 << 40, // Eve outlasts MaxSlots: nodes can never halt
					Seed:      7,
					Engine:    row.engine,
					MaxSlots:  maxSlots,
				}
				if _, err := exec.Run(cfg); !errors.Is(err, ErrMaxSlots) {
					t.Fatalf("want ErrMaxSlots, got %v", err)
				}
			}
			const shortRun, longRun = int64(1) << 10, int64(5) << 10
			run(longRun) // grow every pooled buffer past its steady-state size
			shortAllocs := testing.AllocsPerRun(3, func() { run(shortRun) })
			longAllocs := testing.AllocsPerRun(3, func() { run(longRun) })
			perSlot := (longAllocs - shortAllocs) / float64(longRun-shortRun)
			if perSlot > 0.001 {
				t.Errorf("slot loop allocates: %.4f allocs/slot (short run %.1f, long run %.1f)",
					perSlot, shortAllocs, longAllocs)
			}
		})
	}
}

// TestExecutorRecycleMatchesRun: a recycled Executor must be
// indistinguishable from a fresh Run for every trial, including when the
// configuration shape changes between trials (N shrinking and growing,
// engines alternating, the event engine switching between its lean step
// and its per-slot stepSlot path).
func TestExecutorRecycleMatchesRun(t *testing.T) {
	mkCfg := func(n int, engine Engine, adv adversary.Factory, seed uint64) Config {
		return Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCast(core.Sim(), n)
			},
			Adversary: adv,
			Budget:    6_000,
			Seed:      seed,
			Engine:    engine,
		}
	}
	oblivious, adaptive := adversary.RandomFraction(0.4), adversary.Reactive(0.4)
	cfgs := []Config{
		mkCfg(64, EngineEvent, oblivious, 1),
		mkCfg(16, EngineDense, oblivious, 2), // shrink
		mkCfg(64, EngineEvent, oblivious, 3), // grow back, lean step
		mkCfg(32, EngineAuto, oblivious, 4),
		mkCfg(32, EngineEvent, adaptive, 5), // adaptive Eve: full stepSlot path
		mkCfg(32, EngineDense, oblivious, 6),
	}
	exec := NewExecutor()
	for i, cfg := range cfgs {
		want, errW := Run(cfg)
		got, errG := exec.Run(cfg)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: error mismatch: fresh %v, recycled %v", i, errW, errG)
		}
		if got != want {
			t.Fatalf("trial %d: recycled Executor diverges\n fresh    %+v\n recycled %+v", i, want, got)
		}
	}
}
