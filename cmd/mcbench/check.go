package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runEngineCheck is the CI perf-regression gate: it re-measures every
// frozen engine leg and compares it against a committed BENCH_sim.json,
// failing when head has regressed past the tolerance.
//
// The checks are chosen to be machine-portable — CI runners and dev
// boxes differ, so raw slots/s against a committed absolute would gate
// on hardware, not code:
//
//   - each leg's speedup ratio (event slots/s ÷ dense, the median of
//     interleaved rounds) must stay within tolerance of the committed
//     ratio of the same scale — -quick against the quick baseline, a
//     full check against the full one. Both engines run on the same box
//     in the same process, so the ratio cancels the hardware out and
//     catches fast-path regressions;
//   - allocs/slot per engine and leg must not grow by more than half an
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

	var failures []string
	var skipped int
	check := func(name string, got, committedV, floor float64, pass bool) {
		status := "ok"
		if !pass {
			status = "FAIL"
			failures = append(failures, name)
		}
		fmt.Printf("%-34s measured %.3f  committed %.3f  floor %.3f  %s\n",
			name, got, committedV, floor, status)
	}
	skip := func(name, reason string) {
		skipped++
		fmt.Printf("%-34s SKIP (%s)\n", name, reason)
	}

	for i, leg := range benchLegs() {
		base := committed.sections()[i]
		if base == nil {
			skip(leg.name, "committed report has no "+leg.name+" leg")
			continue
		}
		trials, baseline, scale := leg.trials, base.EventSpeedup, "full"
		if quick {
			trials, baseline, scale = leg.quickTrials, base.EventSpeedupQuick, "quick"
		}
		res, err := measureLeg(leg, trials, benchRounds)
		if err != nil {
			return err
		}
		name := leg.name + " speedup event/dense"
		if baseline <= 0 {
			skip(name, fmt.Sprintf("measured %.3f but committed report has no %s-scale baseline", res.EventSpeedup, scale))
		} else {
			check(name, res.EventSpeedup, baseline, tolerance*baseline, res.EventSpeedup >= tolerance*baseline)
		}
		for _, c := range []struct {
			name      string
			got, base float64
		}{
			{leg.name + " allocs/slot dense", res.Dense.AllocsPerSlot, base.Dense.AllocsPerSlot},
			{leg.name + " allocs/slot event", res.Event.AllocsPerSlot, base.Event.AllocsPerSlot},
		} {
			if c.base == 0 && c.got > 0 {
				// A report generated before allocs/slot existed: nothing
				// to compare, say so rather than silently passing.
				skip(c.name, fmt.Sprintf("measured %.3f but committed report has no alloc baseline", c.got))
				continue
			}
			check(c.name, c.got, c.base, c.base+0.5, c.got <= c.base+0.5)
		}
		fmt.Printf("context [%s]: dense %.0f slots/s (committed %.0f), event %.0f slots/s (committed %.0f)\n",
			leg.name, res.Dense.SlotsPerSec, base.Dense.SlotsPerSec, res.Event.SlotsPerSec, base.Event.SlotsPerSec)
	}

	if len(failures) > 0 {
		return fmt.Errorf("perf gate: %d check(s) regressed past tolerance %.2f (%d skipped): %v",
			len(failures), tolerance, skipped, failures)
	}
	fmt.Printf("perf gate: all checks within tolerance %.2f of %s (%d skipped)\n", tolerance, path, skipped)
	return nil
}
