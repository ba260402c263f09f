package scenario

import (
	"fmt"

	"multicast/internal/adversary"
	"multicast/internal/core"
)

// The built-in catalog. Every scenario here must be described in
// docs/OPERATIONS.md — a root-package test and a CI check compare the
// registry against the docs, so an undocumented scenario fails the
// build, not a user.

// resolve applies the option overrides to a scenario's defaults.
func resolve(opts Options, defN int, defBudget int64) (n int, budget int64) {
	n, budget = defN, defBudget
	if opts.N > 0 {
		n = opts.N
	}
	if opts.Budget > 0 {
		budget = opts.Budget
	}
	return n, budget
}

func init() {
	Register(Scenario{
		Name: "density-spectrum",
		Description: "MultiCastCore across listen/broadcast densities p ∈ {1/8…1/64} " +
			"under half-spectrum jamming — the axis that separates the dense engine from the event one",
		Points: func(opts Options) []Point {
			n, budget := resolve(opts, 128, 100_000)
			dens := []int{8, 16, 64} // p = 1/d
			if opts.Quick {
				dens = []int{8, 64}
			}
			pts := make([]Point, 0, len(dens))
			for _, d := range dens {
				params := core.Sim()
				params.CoreP = 1 / float64(d)
				// Iteration length scales inversely with p so every density
				// runs the same expected per-iteration action count.
				params.CoreA = 10 * float64(d)
				pts = append(pts, Point{
					Label: fmt.Sprintf("p=1/%d", d),
					Config: Config{
						N: n, Algorithm: AlgoMultiCastCore, Params: params,
						Adversary: adversary.BlockFraction(0.5),
						Budget:    budget, Seed: opts.Seed,
					},
				})
			}
			return pts
		},
	})

	Register(Scenario{
		Name: "channel-ladder",
		Description: "MultiCast(C) across physical channel counts C under a full-burst jammer: " +
			"time trades as T/C while per-node cost stays put (Corollary 7.1)",
		Points: func(opts Options) []Point {
			n, budget := resolve(opts, 256, 200_000)
			chans := []int{2, 8, 32, 128}
			if opts.Quick {
				// The historical E6/E12 -quick pair; spans 8× so quick
				// slope fits stay comparable with pre-registry runs.
				chans = []int{8, 64}
			}
			pts := make([]Point, 0, len(chans))
			for _, c := range chans {
				if c > n/2 { // MultiCast(C) needs C ≤ n/2
					continue
				}
				pts = append(pts, Point{
					Label: fmt.Sprintf("C=%d", c),
					Config: Config{
						N: n, Algorithm: AlgoMultiCastC, Channels: c,
						Adversary: adversary.FullBurst(0),
						Budget:    budget, Seed: opts.Seed, MaxSlots: 1 << 26,
					},
				})
			}
			return pts
		},
	})

	Register(Scenario{
		Name: "jammer-gauntlet",
		Description: "MultiCast against the whole jammer roster — oblivious, composed " +
			"(burst-then-quiet), and adaptive (reactive, camper) schedules at one budget",
		Points: func(opts Options) []Point {
			n, budget := resolve(opts, 256, 100_000)
			roster := []struct {
				label string
				adv   adversary.Factory
			}{
				{"none", adversary.None()},
				{"full-burst", adversary.FullBurst(0)},
				{"fraction-0.5", adversary.BlockFraction(0.5)},
				{"random-0.5", adversary.RandomFraction(0.5)},
				{"sweep-8", adversary.Sweep(8)},
				{"pulse", adversary.Pulse(128, 64, 0.9, 0)},
				{"bursty", adversary.Bursty(0.8, 200, 200)},
				{"burst-then-quiet", adversary.StopAfter(adversary.FullBurst(0), 2000)},
				{"reactive-0.5", adversary.Reactive(0.5)},
				{"camper", adversary.Camper(64, 64)},
			}
			if opts.Quick {
				roster = roster[:3]
			}
			pts := make([]Point, 0, len(roster))
			for _, r := range roster {
				pts = append(pts, Point{
					Label: "adv=" + r.label,
					Config: Config{
						N: n, Algorithm: AlgoMultiCast,
						Adversary: r.adv,
						Budget:    budget, Seed: opts.Seed,
					},
				})
			}
			return pts
		},
	})

	Register(Scenario{
		Name: "population-ladder",
		Description: "MultiCast across node populations n ∈ {16…1024} (one point per epoch's " +
			"population) under half-spectrum jamming; ignores the N override — n is the axis",
		Points: func(opts Options) []Point {
			_, budget := resolve(opts, 0, 100_000)
			ns := []int{16, 64, 256, 1024}
			if opts.Quick {
				ns = []int{16, 64}
			}
			pts := make([]Point, 0, len(ns))
			for _, n := range ns {
				pts = append(pts, Point{
					Label: fmt.Sprintf("n=%d", n),
					Config: Config{
						N: n, Algorithm: AlgoMultiCast,
						Adversary: adversary.RandomFraction(0.5),
						Budget:    budget, Seed: opts.Seed,
					},
				})
			}
			return pts
		},
	})

	Register(Scenario{
		Name: "alpha-regimes",
		Description: "MultiCastAdv across the paper's α parameter regimes (time " +
			"Θ̃(T/n^(1−2α) + n^2α), simulation constants) under half-spectrum jamming",
		Points: func(opts Options) []Point {
			n, budget := resolve(opts, 64, 20_000)
			alphas := []float64{0.05, 0.10, 0.20}
			if opts.Quick {
				alphas = []float64{0.10}
			}
			pts := make([]Point, 0, len(alphas))
			for _, a := range alphas {
				params := core.Sim()
				params.Alpha = a
				pts = append(pts, Point{
					Label: fmt.Sprintf("alpha=%.2f", a),
					Config: Config{
						N: n, Algorithm: AlgoMultiCastAdv, Params: params,
						Adversary: adversary.BlockFraction(0.5),
						Budget:    budget, Seed: opts.Seed, MaxSlots: 1 << 26,
					},
				})
			}
			return pts
		},
	})

	Register(Scenario{
		Name: "engine-matrix",
		Description: "the fixed engine benchmark grid — dense vs event (algorithms × schedule densities, " +
			"n=128, half spectrum jammed); ignores overrides to stay comparable across PRs",
		Points: func(opts Options) []Point {
			const n = 128
			jam := adversary.BlockFraction(0.5)
			coreP := func(d int) core.Params {
				params := core.Sim()
				params.CoreP = 1 / float64(d)
				params.CoreA = 10 * float64(d)
				return params
			}
			return []Point{
				{Label: "multicastcore p=1/8", Config: Config{
					N: n, Algorithm: AlgoMultiCastCore, Params: coreP(8),
					Adversary: jam, Budget: 100_000, Seed: opts.Seed,
				}},
				{Label: "multicastcore p=1/64", Config: Config{
					N: n, Algorithm: AlgoMultiCastCore, Params: coreP(64),
					Adversary: jam, Budget: 100_000, Seed: opts.Seed,
				}},
				{Label: "multicast", Config: Config{
					N: n, Algorithm: AlgoMultiCast,
					Adversary: jam, Budget: 100_000, Seed: opts.Seed,
				}},
				{Label: "multicast-c C=8", Config: Config{
					N: n, Algorithm: AlgoMultiCastC, Channels: 8,
					Adversary: jam, Budget: 100_000, Seed: opts.Seed,
				}},
				// One channel: T/C is the whole delay, so the budget shrinks
				// to keep the cell comparable in wall time.
				{Label: "singlechannel", Config: Config{
					N: n, Algorithm: AlgoSingleChannel,
					Adversary: jam, Budget: 20_000, Seed: opts.Seed,
				}},
			}
		},
	})

	Register(Scenario{
		Name: "duel",
		Description: "the paper's headline comparison: single-channel baseline [GKPPSY14] vs " +
			"MultiCast on n/2 channels, same full-burst jammer and budget",
		Points: func(opts Options) []Point {
			n, budget := resolve(opts, 128, 100_000)
			return []Point{
				{Label: "singlechannel", Config: Config{
					N: n, Algorithm: AlgoSingleChannel,
					Adversary: adversary.FullBurst(0),
					Budget:    budget, Seed: opts.Seed, MaxSlots: 1 << 26,
				}},
				{Label: "multicast n/2", Config: Config{
					N: n, Algorithm: AlgoMultiCast,
					Adversary: adversary.FullBurst(0),
					Budget:    budget, Seed: opts.Seed, MaxSlots: 1 << 26,
				}},
			}
		},
	})
}
