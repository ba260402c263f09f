package sim

import (
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/rng"
)

// BenchmarkSlotLoop measures the engine's per-node-slot cost with an
// active MultiCast population and a fraction jammer.
func BenchmarkSlotLoop(b *testing.B) {
	const n = 256
	var nodeSlots int64
	for i := 0; i < b.N; i++ {
		m, err := Run(Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCast(core.Sim(), n)
			},
			Adversary: adversary.BlockFraction(0.5),
			Budget:    20_000,
			Seed:      uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodeSlots += m.Slots * n
	}
	b.ReportMetric(float64(nodeSlots)/b.Elapsed().Seconds(), "node-slots/s")
}

// BenchmarkSlotLoopAdaptive measures the observation overhead the §8
// adaptive extension adds to every slot.
func BenchmarkSlotLoopAdaptive(b *testing.B) {
	const n = 256
	var nodeSlots int64
	for i := 0; i < b.N; i++ {
		m, err := Run(Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCast(core.Sim(), n)
			},
			Adversary: adversary.Reactive(0.5),
			Budget:    20_000,
			Seed:      uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodeSlots += m.Slots * n
	}
	b.ReportMetric(float64(nodeSlots)/b.Elapsed().Seconds(), "node-slots/s")
}

// benchmarkRun measures one engine over the fixed cmd/mcbench scenario
// shape (MultiCastCore, n=128, listen probability 1/64, half-spectrum
// block jammer) on a recycled Executor, reporting allocs/op so steady-
// state allocation regressions show up directly in -bench output.
func benchmarkRun(b *testing.B, engine Engine) {
	const n = 128
	params := core.Sim()
	params.CoreP = 1.0 / 64
	params.CoreA = 640
	cfg := Config{
		N: n,
		Algorithm: func() (protocol.Algorithm, error) {
			return core.NewMultiCastCore(params, n, 200_000)
		},
		Adversary: adversary.BlockFraction(0.5),
		Budget:    200_000,
		Engine:    engine,
	}
	exec := NewExecutor()
	var slots int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i%25) + 1
		m, err := exec.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		slots += m.Slots
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
	b.ReportMetric(float64(slots)/b.Elapsed().Seconds(), "slots/s")
}

func BenchmarkRunDense(b *testing.B) { benchmarkRun(b, EngineDense) }
func BenchmarkRunEvent(b *testing.B) { benchmarkRun(b, EngineEvent) }

// Trial-level parallel scaling is benchmarked in multicast/internal/runner,
// which owns the worker pool.

// BenchmarkWakeStructures measures the event engine's 4096-slot
// eventWheel on the operation mix the engine actually runs: push n
// wakes at geometric gaps, then repeatedly find-next/advance/pop. The
// density axis is the per-node wake probability per slot.
func BenchmarkWakeStructures(b *testing.B) {
	const n = 128
	densities := []struct {
		name string
		p    float64
	}{
		{"p=1e-4", 1e-4},
		{"p=1e-2", 1e-2},
		{"p=0.5", 0.5},
	}
	// Pre-draw a pool of gaps so the RNG cost stays out of the measurement.
	for _, d := range densities {
		r := rng.New(41)
		gaps := make([]int64, 1<<14)
		for i := range gaps {
			gaps[i] = 1 + r.Geometric(d.p)
		}
		b.Run("wheel/"+d.name, func(b *testing.B) {
			w := newEventWheel(n)
			var buf []int
			gi := 0
			nextGap := func() int64 { g := gaps[gi&(len(gaps)-1)]; gi++; return g }
			cur := int64(0)
			for id := 0; id < n; id++ {
				w.push(cur+nextGap(), int32(id))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.advance(cur)
				next, ok := w.nextWakeSlot(cur)
				if !ok {
					b.Fatal("wheel drained")
				}
				cur = next
				w.advance(cur)
				buf = w.popSlot(cur, buf[:0])
				for _, id := range buf {
					w.push(cur+nextGap(), int32(id))
				}
				cur++
			}
		})
	}
}
