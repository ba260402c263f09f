// Package scenario is the workload registry: a catalog of named,
// parameterized experiment scenarios, each of which expands into a list
// of concrete workload points (algorithm, population, adversary,
// budget, seed). The registry is the single source of truth for "what
// do we run" — the CLIs (`mcast -scenario`, `mcbench -matrix`), the
// reproduction experiments, and the examples all enumerate through it,
// so a workload added here is immediately sweepable, shardable, and
// listed by `mcast -list-scenarios`.
//
// Determinism contract: expansion is pure. Points(opts) depends only on
// opts — never on time, host, or global state — and every point carries
// an explicit Seed (the base seed; trial t of the point runs with
// Seed + t, the trial runner's seed-by-trial-index contract). All
// points of one expansion share the same base seed, so cross-point
// comparisons are seed-paired. Consequence: a sweep over an expansion
// can be sharded across machines by global (point × trial) index and
// the merged per-point summaries are bit-identical to the unsharded
// sweep (see internal/runner.RunSweep).
package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// Options parameterize a scenario expansion. The zero value asks for
// every scenario's defaults.
type Options struct {
	// N overrides the node population where the scenario varies other
	// axes (0 = scenario default). Scenarios whose point list IS the
	// population axis (population-ladder) and fixed benchmarks
	// (engine-matrix) ignore it; their descriptions say so.
	N int
	// Budget overrides Eve's energy budget T (0 = scenario default).
	// Fixed benchmarks (engine-matrix) ignore it.
	Budget int64
	// Seed is the base seed given to every point; trial t of a point
	// runs with Seed + t. Zero is a valid seed.
	Seed uint64
	// Quick trims point lists to smoke-test size (CI and -quick runs).
	Quick bool
}

// Point is one concrete workload of an expanded scenario.
type Point struct {
	// Label distinguishes the point within the sweep, e.g. "C=8" or
	// "adv=pulse". Labels are unique within a scenario.
	Label string
	// Config is the workload; Build it into an engine config.
	Config Config
}

// Scenario is a named, parameterized workload generator.
type Scenario struct {
	// Name is the registry key (lowercase, hyphenated).
	Name string
	// Description is a one-line summary for -list-scenarios and docs.
	Description string
	// Points expands the scenario into concrete workloads. Must be pure
	// (see the package documentation's determinism contract).
	Points func(opts Options) []Point
}

// registry maps Name → Scenario; populated by catalog.go's init.
var registry = map[string]Scenario{}

// Register adds a scenario to the registry. It panics on duplicate or
// malformed names and on missing fields — registration happens in init
// functions, where failing loudly beats a silently absent workload.
func Register(s Scenario) {
	if s.Name == "" || s.Name != strings.ToLower(s.Name) || strings.ContainsAny(s.Name, " \t\n") {
		panic(fmt.Sprintf("scenario: invalid name %q (want lowercase, no spaces)", s.Name))
	}
	if s.Description == "" || s.Points == nil {
		panic(fmt.Sprintf("scenario: %q is missing a description or Points func", s.Name))
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
}

// All returns every registered scenario sorted by name.
func All() []Scenario {
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the scenario with the given name (case-insensitive).
func Get(name string) (Scenario, bool) {
	s, ok := registry[strings.ToLower(name)]
	return s, ok
}
