package experiments

import (
	"fmt"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/scenario"
	"multicast/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "safety invariants under adversarial schedules",
		Claim: "Lemmas 4.2/5.2 (no node halts before everyone is informed), 6.4 (helpers imply all informed), 6.5 (halts imply all helpers) — each holds w.h.p.",
		Run:   runE11,
	})
}

func runE11(cfg RunConfig) (Result, error) {
	const n = 64
	trials := defaultTrials(cfg, 20, 4)
	advTrials := 2
	if cfg.Quick {
		advTrials = 1
	}

	res := Result{
		ID:      "E11",
		Title:   "safety invariants under adversarial schedules",
		Claim:   "Lemmas 4.2 / 5.2 / 6.4 / 6.5",
		Columns: []string{"algorithm", "adversary", "trials", "halted-uninformed", "halt-before-informed", "helper-before-informed", "halt-before-helpers"},
	}

	type caseDef struct {
		alg    string
		build  func() (protocol.Algorithm, error)
		adv    adversary.Factory
		budget int64
		trials int
		max    int64
	}
	params := core.Sim()
	cases := []caseDef{
		{
			alg:    "MultiCastCore",
			build:  func() (protocol.Algorithm, error) { return core.NewMultiCastCore(params, n, 20_000) },
			adv:    adversary.Pulse(128, 64, 0.95, 0),
			budget: 20_000, trials: trials,
		},
		{
			alg:    "MultiCastCore",
			build:  func() (protocol.Algorithm, error) { return core.NewMultiCastCore(params, n, 20_000) },
			adv:    adversary.RandomFraction(0.7),
			budget: 20_000, trials: trials,
		},
		{
			alg:    "MultiCast",
			build:  func() (protocol.Algorithm, error) { return core.NewMultiCast(params, n) },
			adv:    adversary.StopAfter(adversary.FullBurst(0), 5_000),
			budget: 1 << 30, trials: trials,
		},
		{
			alg:    "MultiCast",
			build:  func() (protocol.Algorithm, error) { return core.NewMultiCast(params, n) },
			adv:    adversary.Sweep(24),
			budget: 50_000, trials: trials,
		},
		{
			alg:    "MultiCast(C=8)",
			build:  func() (protocol.Algorithm, error) { return core.NewMultiCastC(params, n, 8) },
			adv:    adversary.FullBurst(0),
			budget: 20_000, trials: trials,
		},
		{
			alg:    "MultiCastAdv",
			build:  func() (protocol.Algorithm, error) { return core.NewMultiCastAdv(params) },
			adv:    scenario.PhaseTargeted(params, 0, lg2(n)-1, 0.9),
			budget: 500_000, trials: advTrials, max: 1 << 27,
		},
		{
			alg:    "MultiCastAdv(C=16)",
			build:  func() (protocol.Algorithm, error) { return core.NewMultiCastAdvC(params, 16) },
			adv:    adversary.None(),
			budget: 0, trials: advTrials, max: 1 << 27,
		},
	}

	totalViolations := 0
	totalTrials := 0
	for i, c := range cases {
		p, err := cfg.measure(sim.Config{
			N:         n,
			Algorithm: c.build,
			Adversary: c.adv,
			Budget:    c.budget,
			Seed:      cfg.Seed + uint64(i)*263,
			MaxSlots:  c.max,
		}, c.trials)
		if err != nil {
			return Result{}, err
		}
		inv := p.Invariants
		res.Rows = append(res.Rows, []string{
			c.alg,
			c.adv.Name(),
			fmt.Sprintf("%d", c.trials),
			fmt.Sprintf("%d", inv.HaltedUninformed),
			fmt.Sprintf("%d", inv.HaltBeforeAllInformed),
			fmt.Sprintf("%d", inv.HelperBeforeAllInformed),
			fmt.Sprintf("%d", inv.HaltBeforeAllHelpers),
		})
		totalViolations += violations(p)
		totalTrials += c.trials
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"total violations: %d across %d trials — the lemmas hold w.h.p., so (near-)zero counts are the pass condition",
		totalViolations, totalTrials))
	return res, nil
}
