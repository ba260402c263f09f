package experiments

import (
	"fmt"

	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/scenario"
	"multicast/internal/sim"
	"multicast/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Title: "MultiCastAdv without knowing n, under phase-targeted jamming",
		Claim: "Theorem 6.10: time Õ(T/n^{1−2α} + n^{2α}), cost Õ(√(T/n^{1−2α}) + n^{2α}); Eve's best strategy is jamming only the good phases j = lg n − 1",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E7",
		Title: "MultiCastAdv(C): the cut-off keeps unknown-n broadcast viable on C channels",
		Claim: "Theorem 7.2: runtime dominated by Õ(T/C^{1−2α}), helpers emerge at the cut-off phase j = lg C",
		Run:   runE7,
	})
}

func runE5(cfg RunConfig) (Result, error) {
	n := 64
	budgets := []int64{0, 2_000_000, 8_000_000}
	trials := defaultTrials(cfg, 3, 1)
	if cfg.Quick {
		n = 32
		budgets = []int64{0, 1_000_000}
	}
	params := core.Sim()
	targetJ := lg2(n) - 1

	res := Result{
		ID:      "E5",
		Title:   "MultiCastAdv under phase-targeted jamming",
		Claim:   "Theorem 6.10 (α = " + fmt.Sprintf("%.2f", params.Alpha) + ")",
		Columns: []string{"T", "slots (mean)", "max node cost", "Eve spent", "informed@", "violations"},
	}
	var xs, ySlots, yCost []float64
	for bi, budget := range budgets {
		p, err := cfg.measure(sim.Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCastAdv(params)
			},
			Adversary: scenario.PhaseTargeted(params, 0, targetJ, 0.95),
			Budget:    budget,
			Seed:      cfg.Seed + uint64(bi)*433,
			MaxSlots:  1 << 27,
		}, trials)
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", budget),
			fmtInt(p.Slots.Mean),
			fmtInt(p.MaxEnergy.Mean),
			fmtInt(p.EveEnergy.Mean),
			fmtInt(p.AllInformed.Mean),
			fmt.Sprintf("%d", violations(p)),
		})
		if budget > 0 {
			xs = append(xs, p.EveEnergy.Mean)
			ySlots = append(ySlots, p.Slots.Mean)
			yCost = append(yCost, p.MaxEnergy.Mean)
		}
	}
	if len(xs) >= 2 {
		res.Notes = append(res.Notes,
			"slots vs Eve-spend slope "+fmtSlope(stats.LogLogSlope(xs, ySlots))+" — theorem predicts ≤ 1",
			"cost vs Eve-spend slope "+fmtSlope(stats.LogLogSlope(xs, yCost))+" — theorem predicts ≤ 0.5 asymptotically")
	}
	res.Notes = append(res.Notes,
		"the T = 0 row is the unavoidable τ = Õ(n^{2α}) term of Definition 3.1: epochs must grow until the n-estimate checks pass even with no jamming")
	return res, nil
}

func runE7(cfg RunConfig) (Result, error) {
	n := 64
	chans := []int{16, 32}
	trials := defaultTrials(cfg, 2, 1)
	if cfg.Quick {
		n = 32
		chans = []int{16}
	}
	params := core.Sim()

	res := Result{
		ID:      "E7",
		Title:   "MultiCastAdv(C) under the cut-off",
		Claim:   "Theorem 7.2",
		Columns: []string{"C", "lg C (cut-off)", "slots (mean)", "max node cost", "informed@", "violations"},
	}
	for ci, c := range chans {
		cc := c
		p, err := cfg.measure(sim.Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCastAdvC(params, cc)
			},
			Seed:     cfg.Seed + uint64(ci)*389,
			MaxSlots: 1 << 27,
		}, trials)
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", cc),
			fmt.Sprintf("%d", lg2(cc)),
			fmtInt(p.Slots.Mean),
			fmtInt(p.MaxEnergy.Mean),
			fmtInt(p.AllInformed.Mean),
			fmt.Sprintf("%d", violations(p)),
		})
	}
	res.Notes = append(res.Notes,
		"with C ≤ n/2 the good phase j = lg n − 1 does not exist; helpers must emerge at the cut-off j = lg C (the relaxed Figure 6 rule), and smaller C pays the n^{2+2α}/C^{2−2α} floor in extra slots",
		"runs use T = 0: the τ floor is the dominant and most expensive regime to validate here; budgeted behaviour is covered by E5's identical machinery")
	return res, nil
}

// lg2 is ⌊log₂ n⌋ without importing math for an int.
func lg2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
