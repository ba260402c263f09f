package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"multicast/internal/adversary"
	"multicast/internal/bitset"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/rng"
	"multicast/internal/singlechan"
)

// noRangeSweep is a sweep-like strategy that deliberately does NOT
// implement adversary.RangeSpender, forcing the event engine through its
// per-slot Fill fallback for skipped ranges.
type noRangeSweep struct{ width int }

func (s noRangeSweep) Name() string { return "no-range-sweep" }

func (s noRangeSweep) Fill(slot int64, channels int, mask *bitset.Set) int {
	w := s.width
	if w > channels {
		w = channels
	}
	if w <= 0 {
		return 0
	}
	start := int(slot % int64(channels))
	for i := 0; i < w; i++ {
		mask.Set((start + i) % channels)
	}
	return w
}

func noRangeFactory(width int) adversary.Factory {
	return adversary.NewFactory("no-range-sweep",
		func(*rng.Source) adversary.Strategy { return noRangeSweep{width: width} })
}

// TestEngineEquivalenceMatrix is the dense-equivalence oracle for the
// event engine: for every algorithm family × adversary class × (N, T)
// point × seed, an event run must produce Metrics byte-identical to the
// dense reference run (and fail identically if it fails). The adversary
// axis covers nil, closed-form oblivious, randomised oblivious (whose
// SpendRange must keep the jam stream aligned), a strategy without
// SpendRange (per-slot fallback), and adaptive (which disables range
// skipping entirely).
func TestEngineEquivalenceMatrix(t *testing.T) {
	params := core.Sim()
	type algCase struct {
		name  string
		build func(n int, budget int64) func() (protocol.Algorithm, error)
		slow  bool // MultiCastAdv runs ~100× longer; use trimmed points
	}
	algs := []algCase{
		{"MultiCastCore", func(n int, b int64) func() (protocol.Algorithm, error) {
			return func() (protocol.Algorithm, error) { return core.NewMultiCastCore(params, n, b) }
		}, false},
		{"MultiCast", func(n int, b int64) func() (protocol.Algorithm, error) {
			return func() (protocol.Algorithm, error) { return core.NewMultiCast(params, n) }
		}, false},
		{"MultiCast(C)", func(n int, b int64) func() (protocol.Algorithm, error) {
			return func() (protocol.Algorithm, error) { return core.NewMultiCastC(params, n, n/4) }
		}, false},
		{"MultiCastAdv", func(n int, b int64) func() (protocol.Algorithm, error) {
			return func() (protocol.Algorithm, error) { return core.NewMultiCastAdv(params) }
		}, true},
		{"MultiCastAdv(C)", func(n int, b int64) func() (protocol.Algorithm, error) {
			return func() (protocol.Algorithm, error) { return core.NewMultiCastAdvC(params, 8) }
		}, true},
		{"SingleChannel", func(n int, b int64) func() (protocol.Algorithm, error) {
			return func() (protocol.Algorithm, error) { return singlechan.New(singlechan.DefaultParams(), n) }
		}, false},
	}
	advs := []struct {
		name    string
		factory adversary.Factory
	}{
		{"nil", nil},
		{"block", adversary.BlockFraction(0.6)},
		{"rand", adversary.RandomFraction(0.4)},
		{"bursty", adversary.Bursty(0.8, 40, 160)},
		{"norange", noRangeFactory(3)},
		{"reactive", adversary.Reactive(0.6)},
	}
	type point struct {
		n        int
		budget   int64
		maxSlots int64
	}
	points := []point{
		{16, 2_000, 1 << 24},
		{32, 12_000, 1 << 24},
	}
	// The MultiCastAdv family runs orders of magnitude longer per trial, so
	// its points use smaller budgets and clamp MaxSlots: equivalence must
	// hold on the ErrMaxSlots truncation path too, so clamped cells are a
	// valid (and affordable) part of the oracle.
	slowPoints := []point{
		{16, 800, 1 << 19},
		{32, 2_000, 1 << 19},
	}
	seeds := []uint64{1, 2}
	if testing.Short() {
		points = points[:1]
		slowPoints = slowPoints[:1]
		seeds = seeds[:1]
	}

	for _, alg := range algs {
		for _, adv := range advs {
			pts := points
			if alg.slow {
				pts = slowPoints
			}
			for _, pt := range pts {
				alg, adv, pt := alg, adv, pt
				name := fmt.Sprintf("%s/%s/n%d-T%d", alg.name, adv.name, pt.n, pt.budget)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					for _, seed := range seeds {
						cfg := Config{
							N:         pt.n,
							Algorithm: alg.build(pt.n, pt.budget),
							Adversary: adv.factory,
							Budget:    pt.budget,
							Seed:      seed,
							MaxSlots:  pt.maxSlots,
						}
						cfg.Engine = EngineDense
						want, errD := Run(cfg)
						cfg.Engine = EngineEvent
						got, errE := Run(cfg)
						if (errD == nil) != (errE == nil) ||
							errors.Is(errD, ErrMaxSlots) != errors.Is(errE, ErrMaxSlots) {
							t.Fatalf("seed %d: error mismatch: dense %v, event %v", seed, errD, errE)
						}
						if got != want {
							t.Fatalf("seed %d: engines diverge\n dense %+v\n event %+v", seed, want, got)
						}
					}
				})
			}
		}
	}
}

// TestEngineAutoMatchesDense pins Auto, which always runs the event
// engine, on each route into it — an oblivious Eve (range skipping and
// the lean step), an adaptive Eve (camper, reactive: per-slot stepSlot),
// and an algorithm whose nodes lack protocol.Sleeper (countingAlg's
// wrapper hides it, so every node wakes every slot): the metrics must
// equal the dense reference, and the run must have built the event
// engine's wheel (the dense loop never does).
func TestEngineAutoMatchesDense(t *testing.T) {
	multiCast := func() (protocol.Algorithm, error) { return core.NewMultiCast(core.Sim(), 32) }
	notSleeper := func() (protocol.Algorithm, error) {
		inner, err := multiCast()
		if err != nil {
			return nil, err
		}
		return &countingAlg{inner: inner, counts: make(map[int]int64)}, nil
	}
	rows := []struct {
		name string
		alg  func() (protocol.Algorithm, error)
		adv  adversary.Factory
	}{
		{"nil", multiCast, nil},
		{"rand", multiCast, adversary.RandomFraction(0.5)},
		{"camper", multiCast, adversary.Camper(16, 8)},
		{"reactive", multiCast, adversary.Reactive(0.5)},
		{"not-sleeper", notSleeper, adversary.RandomFraction(0.5)},
	}
	for _, row := range rows {
		cfg := Config{
			N:         32,
			Algorithm: row.alg,
			Adversary: row.adv,
			Budget:    8_000,
			Seed:      11,
		}
		cfg.Engine = EngineDense
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		cfg.Engine = EngineAuto
		exec := NewExecutor()
		got, err := exec.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if exec.ex.wheel == nil {
			t.Fatalf("%s: Auto did not run the event engine", row.name)
		}
		if got != want {
			t.Fatalf("%s: auto diverges from dense:\n dense %+v\n auto  %+v", row.name, want, got)
		}
	}
}

// TestEngineObserverEquivalence: an Observer forces the event engine to
// resolve every slot; the per-slot callbacks and the metrics must both
// match the dense run exactly.
func TestEngineObserverEquivalence(t *testing.T) {
	type slotRec struct {
		slot                                                   int64
		channels, jammed, listeners, broadcasters, inf, halted int
	}
	record := func(engine Engine) ([]slotRec, Metrics) {
		var recs []slotRec
		m, err := Run(Config{
			N: 16,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCastCore(core.Sim(), 16, 1_000)
			},
			Adversary: adversary.Sweep(2),
			Budget:    1_000,
			Seed:      5,
			Engine:    engine,
			Observer: observerFunc(func(slot int64, channels, jammed, listeners, broadcasters, informed, halted int) {
				recs = append(recs, slotRec{slot, channels, jammed, listeners, broadcasters, informed, halted})
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs, m
	}
	denseRecs, denseM := record(EngineDense)
	recs, m := record(EngineEvent)
	if m != denseM {
		t.Fatalf("metrics diverge:\n dense %+v\n event %+v", denseM, m)
	}
	if len(denseRecs) != len(recs) {
		t.Fatalf("observer saw %d slots dense, %d event", len(denseRecs), len(recs))
	}
	for i := range denseRecs {
		if denseRecs[i] != recs[i] {
			t.Fatalf("slot %d: observer records diverge:\n dense %+v\n event %+v", i, denseRecs[i], recs[i])
		}
	}
}

// observerFunc adapts a closure to Observer.
type observerFunc func(slot int64, channels, jammed, listeners, broadcasters, informed, halted int)

func (f observerFunc) Slot(slot int64, channels, jammed, listeners, broadcasters, informed, halted int) {
	f(slot, channels, jammed, listeners, broadcasters, informed, halted)
}

// TestEngineValidation rejects out-of-range engine values.
func TestEngineValidation(t *testing.T) {
	_, err := Run(Config{
		N:         16,
		Algorithm: mcCore(16, 0),
		Engine:    Engine(9),
	})
	if err == nil {
		t.Fatal("accepted Engine(9)")
	}
}

// TestEngineMaxSlotsEquivalence: the ErrMaxSlots path must also be
// bit-identical — same error, same truncated metrics, same Eve spend for
// the skipped tail.
func TestEngineMaxSlotsEquivalence(t *testing.T) {
	cfg := Config{
		N: 16,
		Algorithm: func() (protocol.Algorithm, error) {
			return core.NewMultiCast(core.Sim(), 16)
		},
		Adversary: adversary.FullBurst(0),
		Budget:    1 << 40, // Eve outlasts MaxSlots: nodes can never halt
		Seed:      3,
		MaxSlots:  4_096,
	}
	cfg.Engine = EngineDense
	want, errD := Run(cfg)
	if !errors.Is(errD, ErrMaxSlots) {
		t.Fatalf("expected ErrMaxSlots from dense, got %v", errD)
	}
	cfg.Engine = EngineEvent
	got, errE := Run(cfg)
	if !errors.Is(errE, ErrMaxSlots) {
		t.Fatalf("expected ErrMaxSlots from event, got %v", errE)
	}
	if got != want {
		t.Fatalf("truncated metrics diverge:\n dense %+v\n event %+v", want, got)
	}
}

// TestMultiCastCFullSpectrumEquivalence: with C = n/2 the simulation layer
// of Figure 5 degenerates to rounds of one slot, so MultiCast(C = n/2)
// must reproduce MultiCast *exactly* — same random draws, same actions,
// same metrics — for any seed. This pins the simulation mechanism to its
// specification: "AC can perfectly simulate A".
func TestMultiCastCFullSpectrumEquivalence(t *testing.T) {
	const n = 64
	for seed := uint64(1); seed <= 5; seed++ {
		base := Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCast(core.Sim(), n)
			},
			Adversary: adversary.RandomFraction(0.4),
			Budget:    20_000,
			Seed:      seed,
		}
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		base.Algorithm = func() (protocol.Algorithm, error) {
			return core.NewMultiCastC(core.Sim(), n, n/2)
		}
		got, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: MultiCast(C=n/2) diverges from MultiCast:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestMultiCastCSlowdownFactor: halving C doubles wall-clock slots but
// leaves the *round* count (and hence each node's energy) distributionally
// unchanged. Check the deterministic part: the slot count of a jam-free run
// with C channels is exactly (n/2C) × the C = n/2 slot count for the same
// seed, because the round structure is rigid.
func TestMultiCastCSlowdownFactor(t *testing.T) {
	const n = 64
	base := int64(0)
	for _, c := range []int{32, 16, 8, 4} {
		cc := c
		m, err := Run(Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCastC(core.Sim(), n, cc)
			},
			Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if c == 32 {
			base = m.Slots
			continue
		}
		factor := int64(32 / c)
		if m.Slots != base*factor {
			t.Errorf("C=%d: slots = %d, want exactly %d×%d (identical rounds, stretched %d×)",
				c, m.Slots, factor, base, factor)
		}
	}
}

// Property: for random seeds and fractions, Eve never exceeds her budget
// and metrics stay internally consistent.
func TestQuickEngineConsistency(t *testing.T) {
	f := func(seed uint64, fRaw uint8, budRaw uint16) bool {
		frac := float64(fRaw) / 255
		budget := int64(budRaw) * 4
		m, err := Run(Config{
			N: 16,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCastCore(core.Sim(), 16, budget)
			},
			Adversary: adversary.RandomFraction(frac),
			Budget:    budget,
			Seed:      seed,
			MaxSlots:  1 << 22,
		})
		if err != nil {
			return false
		}
		if m.EveEnergy > budget {
			return false
		}
		if m.AllInformedSlot < 1 || m.AllInformedSlot > m.Slots {
			return false
		}
		if m.FirstHaltSlot < m.AllInformedSlot && m.Invariants.HaltBeforeAllInformed == 0 &&
			m.Invariants.HaltedUninformed == 0 {
			// A halt before all-informed must have been flagged; with the
			// invariant counters at zero the order must be consistent.
			return false
		}
		return float64(m.MaxNodeEnergy) >= m.MeanNodeEnergy && m.MeanNodeEnergy > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
