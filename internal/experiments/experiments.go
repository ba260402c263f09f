// Package experiments defines the reproduction experiments E1–E14. The
// paper is a theory paper with no empirical tables, so
// each experiment operationalises one theorem, lemma, or in-text claim as
// a measurable workload: a parameter sweep, the adversary the claim is
// about, and the metric whose scaling shape the claim predicts. The
// harness prints one table per experiment plus fitted log-log slopes so
// the measured exponents can be compared with the claimed ones.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"multicast/internal/runner"
	"multicast/internal/scenario"
	"multicast/internal/sim"
	"multicast/internal/stats"
)

// RunConfig controls how much statistical work an experiment does.
type RunConfig struct {
	// Trials per data point. Zero means the experiment's default.
	Trials int
	// Seed is the base seed; data points derive their own seeds from it.
	Seed uint64
	// Quick trims sweeps to small parameter ranges so the whole suite
	// finishes in seconds (16 s on a 2-vCPU VM; used by benchmarks and
	// CI).
	Quick bool
	// Engine overrides the slot-loop implementation for every trial
	// (zero = Auto). Dense and event produce identical metrics; the
	// knob exists to re-run tables on the reference engine or to time
	// the difference.
	Engine sim.Engine
}

// Result is a rendered experiment outcome.
type Result struct {
	// ID is the experiment identifier (E1…E14).
	ID string
	// Title is a one-line description.
	Title string
	// Claim is the paper statement being checked.
	Claim string
	// Columns are the table headers.
	Columns []string
	// Rows are the formatted table cells.
	Rows [][]string
	// Notes carry fitted slopes and pass/fail observations.
	Notes []string
}

// Experiment is a runnable reproduction experiment.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(cfg RunConfig) (Result, error)
}

// registry is populated by the per-experiment files' init functions.
var registry []Experiment

func register(e Experiment) {
	if _, ok := idOrder(e.ID); !ok {
		panic(fmt.Sprintf("experiments: malformed experiment ID %q (want E<number>)", e.ID))
	}
	registry = append(registry, e)
}

// All returns every experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// register rejected malformed IDs, so the keys always exist.
		a, _ := idOrder(out[i].ID)
		b, _ := idOrder(out[j].ID)
		return a < b
	})
	return out
}

// idOrder maps "E10" → 10 for sorting. IDs that do not match the
// E<number> scheme (with a positive number) are rejected with ok =
// false rather than silently sorting first as 0, so registration can
// refuse them outright.
func idOrder(id string) (n int, ok bool) {
	if len(id) < 2 || len(id) > 8 || (id[0] != 'E' && id[0] != 'e') {
		return 0, false
	}
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if n == 0 {
		return 0, false
	}
	return n, true
}

// Get returns the experiment with the given ID (case-insensitive).
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared measurement helpers

// point aggregates the trials of one sweep point.
type point struct {
	Slots, MaxEnergy, EveEnergy, AllInformed stats.Summary
	Invariants                               sim.InvariantCounts
}

// measure runs trials of sc under rc's engine choice and aggregates the
// headline metrics. Trials stream straight into mergeable accumulators
// (O(1) memory in the trial count): no per-trial metric slices exist on
// this path anymore.
func (rc RunConfig) measure(sc sim.Config, trials int) (point, error) {
	sc.Engine = rc.Engine
	col := runner.NewCollector()
	if err := runner.Run(context.Background(), sc, runner.SweepPlan{Trials: trials}, col.Add); err != nil {
		return point{}, err
	}
	return point{
		Slots:       col.Slots(),
		MaxEnergy:   col.MaxEnergy(),
		EveEnergy:   col.EveEnergy(),
		AllInformed: col.AllInformed(),
		Invariants:  col.Invariants(),
	}, nil
}

// expand pulls a named workload grid out of the scenario registry —
// experiments that sweep a standard axis (channel counts, algorithm
// duels) enumerate through the registry so the experiment tables, the
// CLIs, and the examples measure the same points.
func expand(name string, opts scenario.Options) ([]scenario.Point, error) {
	s, ok := scenario.Get(name)
	if !ok {
		return nil, fmt.Errorf("experiments: scenario %q missing from the registry", name)
	}
	pts := s.Points(opts)
	if len(pts) == 0 {
		return nil, fmt.Errorf("experiments: scenario %q expanded to zero points", name)
	}
	return pts, nil
}

// measurePoints measures every workload point of an expanded scenario.
func (rc RunConfig) measurePoints(pts []scenario.Point, trials int) ([]point, error) {
	out := make([]point, len(pts))
	for i, p := range pts {
		sc, err := p.Config.Build()
		if err != nil {
			return nil, fmt.Errorf("experiments: point %s: %w", p.Label, err)
		}
		m, err := rc.measure(sc, trials)
		if err != nil {
			return nil, fmt.Errorf("experiments: point %s: %w", p.Label, err)
		}
		out[i] = m
	}
	return out, nil
}

// defaultTrials resolves the trial count.
func defaultTrials(cfg RunConfig, def, quick int) int {
	if cfg.Trials > 0 {
		return cfg.Trials
	}
	if cfg.Quick {
		return quick
	}
	return def
}

// fmtInt renders a float that represents a count.
func fmtInt(v float64) string {
	switch {
	case v >= 1e7:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// fmtSlope renders a fitted exponent with its R².
func fmtSlope(f stats.Fit) string {
	return fmt.Sprintf("%.2f (R²=%.3f)", f.Slope, f.R2)
}

// Render formats the result as an aligned text table.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper claim: %s\n", r.Claim)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown formats the result as a GitHub-flavoured markdown table.
func (r Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&b, "*Paper claim:* %s\n\n", r.Claim)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(r.Columns, " | "))
	b.WriteString("|")
	for range r.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	return b.String()
}

// CSV formats the result as RFC-4180-ish CSV (quotes only where needed).
func (r Result) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}
