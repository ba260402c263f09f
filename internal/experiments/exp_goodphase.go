package experiments

import (
	"context"
	"fmt"
	"strings"

	"multicast/internal/core"
	"multicast/internal/predict"
	"multicast/internal/protocol"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "good-phase identification: helpers emerge only at jˆ = lg n − 1 (or lg C)",
		Claim: "Lemmas 6.1–6.3: w.h.p. no node becomes helper in epochs i ≤ lg n, at phases j ≥ lg n, or at phases j < lg n − 1; Corollary C.1 moves the target to j = lg C under the cut-off",
		Run:   runE14,
	})
}

func runE14(cfg RunConfig) (Result, error) {
	n := 64
	trials := defaultTrials(cfg, 3, 1)
	params := core.Sim()

	type variant struct {
		name    string
		build   func() (protocol.Algorithm, error)
		targetJ int
	}
	variants := []variant{
		{
			name:    "MultiCastAdv",
			build:   func() (protocol.Algorithm, error) { return core.NewMultiCastAdv(params) },
			targetJ: lg2(n) - 1,
		},
		{
			name:    "MultiCastAdv(C=16)",
			build:   func() (protocol.Algorithm, error) { return core.NewMultiCastAdvC(params, 16) },
			targetJ: 4, // lg 16
		},
	}
	if cfg.Quick {
		variants = variants[:1]
	}

	res := Result{
		ID:      "E14",
		Title:   "good-phase identification",
		Claim:   "Lemmas 6.1–6.3 / Corollary C.1",
		Columns: []string{"algorithm", "predicted jˆ", "jˆ histogram (j:count)", "wrong-phase helpers", "helper epoch (predicted)"},
	}
	for vi, v := range variants {
		// The jˆ histogram folds in per trial as metrics stream out of the
		// runner; no per-trial buffering.
		var hist [sim.MaxHelperJBucket + 1]int64
		err := runner.Run(context.Background(), sim.Config{
			N:         n,
			Algorithm: v.build,
			Seed:      cfg.Seed + uint64(vi)*547,
			MaxSlots:  1 << 27,
			Engine:    cfg.Engine,
		}, runner.SweepPlan{Trials: trials}, func(_ int, m sim.Metrics) error {
			for j, c := range m.HelperJCounts {
				hist[j] += int64(c)
			}
			return nil
		})
		if err != nil {
			return Result{}, err
		}
		var parts []string
		wrong := int64(0)
		for j, c := range hist {
			if c == 0 {
				continue
			}
			parts = append(parts, fmt.Sprintf("%d:%d", j, c))
			if j != v.targetJ {
				wrong += c
			}
		}
		he := predict.HelperEpoch(params, n, 0)
		res.Rows = append(res.Rows, []string{
			v.name,
			fmt.Sprintf("%d", v.targetJ),
			strings.Join(parts, " "),
			fmt.Sprintf("%d", wrong),
			fmt.Sprintf("%d", he),
		})
	}
	res.Notes = append(res.Notes,
		"every helper transition must land on the predicted phase: wrong-phase helpers would let Eve jam a phase the nodes are not actually relying on",
		"the predicted helper epoch comes from the closed-form counter expectations (internal/predict), i.e. the same algebra as Lemmas 6.1–6.3")
	return res, nil
}
