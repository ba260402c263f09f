package sim

import (
	"errors"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/singlechan"
)

// fuzzAlgorithm maps a selector byte onto one of the six algorithm
// families. The budget doubles as MultiCastCore's known T.
func fuzzAlgorithm(sel uint8, n int, budget int64) func() (protocol.Algorithm, error) {
	params := core.Sim()
	switch sel % 6 {
	case 0:
		return func() (protocol.Algorithm, error) { return core.NewMultiCastCore(params, n, budget) }
	case 1:
		return func() (protocol.Algorithm, error) { return core.NewMultiCast(params, n) }
	case 2:
		return func() (protocol.Algorithm, error) { return core.NewMultiCastC(params, n, max(n/4, 1)) }
	case 3:
		return func() (protocol.Algorithm, error) { return core.NewMultiCastAdv(params) }
	case 4:
		return func() (protocol.Algorithm, error) { return core.NewMultiCastAdvC(params, 4) }
	default:
		return func() (protocol.Algorithm, error) { return singlechan.New(singlechan.DefaultParams(), n) }
	}
}

// fuzzAdversary maps a selector byte onto an adversary class, covering
// nil, closed-form oblivious, randomised oblivious, and adaptive.
func fuzzAdversary(sel uint8) adversary.Factory {
	switch sel % 5 {
	case 0:
		return nil
	case 1:
		return adversary.BlockFraction(0.5)
	case 2:
		return adversary.RandomFraction(0.35)
	case 3:
		return adversary.Bursty(0.7, 30, 90)
	default:
		return adversary.Reactive(0.5)
	}
}

// FuzzEngineEquivalence fuzzes (seed, N, T, algorithm, adversary, engine)
// and cross-checks the challenger engine against the dense reference:
// both must produce byte-identical Metrics (or fail with the same error),
// and clean no-adversary runs must not violate the paper's safety
// invariants.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint16(500), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(3), uint16(2000), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(1), uint16(900), uint8(2), uint8(2), uint8(0))
	f.Add(uint64(4), uint8(0), uint16(300), uint8(3), uint8(3), uint8(1))
	f.Add(uint64(5), uint8(2), uint16(100), uint8(4), uint8(4), uint8(0))
	f.Add(uint64(6), uint8(3), uint16(4000), uint8(5), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(2), uint16(0), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(8), uint8(1), uint16(65535), uint8(0), uint8(2), uint8(1))

	f.Fuzz(func(t *testing.T, seed uint64, nSel uint8, budget uint16, algSel, advSel, engSel uint8) {
		n := 1 << (2 + nSel%4) // 4, 8, 16, 32 — power of two as required
		cfg := Config{
			N:         n,
			Algorithm: fuzzAlgorithm(algSel, n, int64(budget)),
			Adversary: fuzzAdversary(advSel),
			Budget:    int64(budget),
			Seed:      seed,
			// Bound runaway inputs; both engines must truncate identically.
			// Kept small enough that the worst cell (MultiCastAdv at n=4
			// under an adaptive Eve, which runs dense to the valve) stays
			// far below the fuzzer's ~10s per-input hang detector even
			// with coverage instrumentation.
			MaxSlots: 1 << 18,
		}
		cfg.Engine = EngineDense
		want, errD := Run(cfg)
		// Rotate the challenger between Auto and the explicit event
		// engine — both must match dense.
		if engSel%2 == 0 {
			cfg.Engine = EngineAuto
		} else {
			cfg.Engine = EngineEvent
		}
		got, errC := Run(cfg)

		switch {
		case errD == nil && errC == nil:
		case errors.Is(errD, ErrMaxSlots) && errors.Is(errC, ErrMaxSlots):
		default:
			t.Fatalf("error mismatch: dense %v, %v %v", errD, cfg.Engine, errC)
		}
		if got != want {
			t.Fatalf("engines diverge (n=%d alg=%d adv=%d):\n dense %+v\n %v %+v",
				n, algSel%6, advSel%5, want, cfg.Engine, got)
		}
		// The safety lemmas hold w.h.p.; at fuzz scale only the clean
		// no-adversary runs at non-trivial n are deterministic enough to
		// assert outright.
		if errD == nil && cfg.Adversary == nil && n >= 16 && want.Invariants.Any() {
			t.Fatalf("invariant violations in a clean run: %+v", want.Invariants)
		}
	})
}
