package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"multicast"
)

// matrixWorkload is one row of the engine benchmark matrix: an algorithm
// at a given schedule density. Density is what separates the engines —
// the event engine's lead over the dense loop grows as fewer nodes act
// per slot — so each algorithm appears at the densities that matter for
// it.
type matrixWorkload struct {
	name string
	cfg  multicast.Config
}

// matrixWorkloads enumerates the benchmark rows through the scenario
// registry's fixed "engine-matrix" workload grid (n=128, half spectrum
// jammed — comparable across PRs; the registry ignores overrides for
// it). The same points are reachable as `mcast -scenario engine-matrix`.
func matrixWorkloads() []matrixWorkload {
	scen, ok := multicast.ScenarioByName("engine-matrix")
	if !ok {
		panic("mcbench: engine-matrix scenario missing from the registry")
	}
	points := multicast.ExpandScenario(scen, multicast.ScenarioOptions{Seed: 1})
	rows := make([]matrixWorkload, len(points))
	for i, p := range points {
		rows[i] = matrixWorkload{name: p.Label, cfg: p.Config}
	}
	return rows
}

const (
	matrixTrials      = 8
	matrixTrialsQuick = 2
)

// matrixCell is one (workload, engine) measurement.
type matrixCell struct {
	Slots       int64   `json:"slots"`
	Seconds     float64 `json:"seconds"`
	SlotsPerSec float64 `json:"slots_per_sec"`
}

// matrixRow is one workload's measurements across engines. The speedup
// is relative to the dense reference loop.
type matrixRow struct {
	Workload     string     `json:"workload"`
	Trials       int        `json:"trials"`
	Dense        matrixCell `json:"dense"`
	Event        matrixCell `json:"event"`
	EventSpeedup float64    `json:"event_speedup"`
}

// runMatrixCell measures one workload on one engine. Trials run through
// the trial runner with a single worker, so the measurement is serial
// and comparable while exercising the production execution path.
func runMatrixCell(cfg multicast.Config, engine multicast.Engine, trials int) (matrixCell, error) {
	cfg.Engine = engine
	var cell matrixCell
	start := time.Now()
	err := multicast.RunTrialsContext(context.Background(), cfg,
		multicast.TrialPlan{Trials: trials, Workers: 1},
		func(_ int, m multicast.Metrics) error {
			cell.Slots += m.Slots
			return nil
		})
	if err != nil {
		return cell, err
	}
	cell.Seconds = time.Since(start).Seconds()
	cell.SlotsPerSec = float64(cell.Slots) / cell.Seconds
	return cell, nil
}

// runMatrix prints the algorithms × engines × densities benchmark table
// and optionally writes the rows as JSON.
func runMatrix(outPath string, quick bool) error {
	trials := matrixTrials
	if quick {
		trials = matrixTrialsQuick
	}
	rows := make([]matrixRow, 0, len(matrixWorkloads()))
	for _, w := range matrixWorkloads() {
		dense, err := runMatrixCell(w.cfg, multicast.EngineDense, trials)
		if err != nil {
			return fmt.Errorf("%s dense: %w", w.name, err)
		}
		event, err := runMatrixCell(w.cfg, multicast.EngineEvent, trials)
		if err != nil {
			return fmt.Errorf("%s event: %w", w.name, err)
		}
		// The matrix doubles as an engine-parity check on every workload.
		if dense.Slots != event.Slots {
			return fmt.Errorf("%s: engine divergence — dense %d slots, event %d",
				w.name, dense.Slots, event.Slots)
		}
		rows = append(rows, matrixRow{
			Workload: w.name, Trials: trials,
			Dense: dense, Event: event,
			EventSpeedup: event.SlotsPerSec / dense.SlotsPerSec,
		})
	}

	fmt.Printf("engine benchmark matrix (scenario engine-matrix: n=128, 50%% spectrum jammed, %d trials/cell, serial)\n\n", trials)
	fmt.Printf("%-22s  %12s  %14s  %14s  %8s\n",
		"workload", "slots", "dense slots/s", "event slots/s", "speedup")
	fmt.Println(strings.Repeat("-", 78))
	for _, r := range rows {
		fmt.Printf("%-22s  %12d  %14.0f  %14.0f  %7.2fx\n",
			r.Workload, r.Dense.Slots, r.Dense.SlotsPerSec, r.Event.SlotsPerSec, r.EventSpeedup)
	}
	fmt.Println("\nengines agreed on total slots for every workload (bit-identity holds)")

	if outPath != "" {
		data, err := json.MarshalIndent(map[string]any{
			"benchmark": "sim-engine-matrix",
			"generated": time.Now().UTC().Format(time.RFC3339),
			"rows":      rows,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("matrix written to %s\n", outPath)
	}
	return nil
}
