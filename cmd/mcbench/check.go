package main

import (
	"encoding/json"
	"fmt"
	"os"

	"multicast"
)

// runEngineCheck is the CI perf-regression gate: it re-measures the
// frozen engine scenario and compares it against a committed
// BENCH_sim.json, failing when head has regressed past the tolerance.
//
// The checks are chosen to be machine-portable — CI runners and dev
// boxes differ, so raw slots/s against a committed absolute would gate
// on hardware, not code:
//
//   - the speedup ratio (event slots/s ÷ dense) must stay within
//     tolerance of the committed ratio — both engines run on the same
//     box in the same process, so the ratio cancels the hardware out
//     and catches fast-path regressions;
//   - allocs/slot per engine must not grow by more than half an
//     allocation — allocation counts are deterministic per workload,
//     hardware-independent, and the first thing accidental per-slot
//     garbage moves.
//
// A check that cannot run prints an explicit `SKIP (reason)` line and
// is counted in the exit summary, so a gate that quietly measured
// nothing is visible in the CI log.
//
// Absolute throughput is still printed for context. tolerance is the
// fraction of the committed ratio head must retain (0.85 = within 15%);
// raising it above 1 demands head be faster than the baseline, which is
// how the gate itself is smoke-tested.
func runEngineCheck(path string, quick bool, tolerance float64) error {
	if tolerance <= 0 {
		return fmt.Errorf("-tolerance %v: must be positive", tolerance)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed benchReport
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if committed.Dense.SlotsPerSec <= 0 || committed.Event.SlotsPerSec <= 0 || committed.EventSpeedup <= 0 {
		return fmt.Errorf("%s: not an engine benchmark report (missing dense/event throughput)", path)
	}

	trials := uint64(benchTrials)
	if quick {
		trials = benchTrialsQuick
	}
	// Warm-up, as in the generator, so lazy one-time costs don't skew the
	// dense leg of the ratio.
	if _, err := runEngine(benchScenario(), multicast.EngineDense, trials); err != nil {
		return err
	}
	dense, err := runEngine(benchScenario(), multicast.EngineDense, trials)
	if err != nil {
		return err
	}
	event, err := runEngine(benchScenario(), multicast.EngineEvent, trials)
	if err != nil {
		return err
	}

	var failures []string
	var skipped int
	check := func(name string, got, committedV, floor float64, pass bool) {
		status := "ok"
		if !pass {
			status = "FAIL"
			failures = append(failures, name)
		}
		fmt.Printf("%-22s measured %.3f  committed %.3f  floor %.3f  %s\n",
			name, got, committedV, floor, status)
	}

	speedup := event.SlotsPerSec / dense.SlotsPerSec
	check("speedup event/dense", speedup, committed.EventSpeedup,
		tolerance*committed.EventSpeedup, speedup >= tolerance*committed.EventSpeedup)

	for _, c := range []struct {
		name      string
		got, base float64
	}{
		{"allocs/slot dense", dense.AllocsPerSlot, committed.Dense.AllocsPerSlot},
		{"allocs/slot event", event.AllocsPerSlot, committed.Event.AllocsPerSlot},
	} {
		if c.base == 0 && c.got > 0 {
			// A report generated before allocs/slot existed: nothing to
			// compare, say so rather than silently passing. Skips are
			// counted into the exit summary so a gate that silently
			// measured nothing is visible.
			skipped++
			fmt.Printf("%-22s SKIP (measured %.3f but committed report has no alloc baseline)\n", c.name, c.got)
			continue
		}
		check(c.name, c.got, c.base, c.base+0.5, c.got <= c.base+0.5)
	}

	fmt.Printf("context: dense %.0f slots/s (committed %.0f), event %.0f slots/s (committed %.0f)\n",
		dense.SlotsPerSec, committed.Dense.SlotsPerSec, event.SlotsPerSec, committed.Event.SlotsPerSec)
	if len(failures) > 0 {
		return fmt.Errorf("perf gate: %d check(s) regressed past tolerance %.2f (%d skipped): %v",
			len(failures), tolerance, skipped, failures)
	}
	fmt.Printf("perf gate: all checks within tolerance %.2f of %s (%d skipped)\n", tolerance, path, skipped)
	return nil
}
