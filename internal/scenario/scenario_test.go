package scenario

import (
	"sort"
	"strings"
	"testing"
)

// Every registered scenario must expand to a usable, deterministic,
// internally consistent point list at default and quick options.
func TestCatalogExpands(t *testing.T) {
	all := All()
	if len(all) < 5 {
		t.Fatalf("registry has %d scenarios, want the full catalog", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name < all[j].Name }) {
		t.Error("All() is not sorted by name")
	}
	for _, s := range all {
		for _, opts := range []Options{{}, {Quick: true}, {Seed: 42}} {
			pts := s.Points(opts)
			if len(pts) == 0 {
				t.Errorf("%s: expands to zero points at %+v", s.Name, opts)
				continue
			}
			labels := map[string]bool{}
			for _, p := range pts {
				if p.Label == "" {
					t.Errorf("%s: point with empty label", s.Name)
				}
				if labels[p.Label] {
					t.Errorf("%s: duplicate label %q", s.Name, p.Label)
				}
				labels[p.Label] = true
				if p.Config.Seed != opts.Seed {
					t.Errorf("%s %s: seed %d, want base seed %d", s.Name, p.Label, p.Config.Seed, opts.Seed)
				}
				if _, err := p.Config.Build(); err != nil {
					t.Errorf("%s %s: Build: %v", s.Name, p.Label, err)
				}
			}
		}
		full, quick := s.Points(Options{}), s.Points(Options{Quick: true})
		if len(quick) > len(full) {
			t.Errorf("%s: quick expansion (%d points) larger than full (%d)", s.Name, len(quick), len(full))
		}
	}
}

// Expansion must be pure: two calls with equal options yield equal
// labels and workload identities.
func TestExpansionDeterministic(t *testing.T) {
	for _, s := range All() {
		opts := Options{N: 64, Budget: 30_000, Seed: 5}
		a, b := s.Points(opts), s.Points(opts)
		if len(a) != len(b) {
			t.Fatalf("%s: expansion sizes differ: %d vs %d", s.Name, len(a), len(b))
		}
		for i := range a {
			if a[i].Label != b[i].Label || a[i].Config.Describe() != b[i].Config.Describe() {
				t.Errorf("%s point %d: expansions differ:\n  %s %s\n  %s %s",
					s.Name, i, a[i].Label, a[i].Config.Describe(), b[i].Label, b[i].Config.Describe())
			}
		}
	}
}

// Describe must separate points that run different workloads — the
// shard-merge refusal logic keys on it.
func TestDescribeSeparatesPoints(t *testing.T) {
	for _, s := range All() {
		pts := s.Points(Options{Seed: 1})
		seen := map[string]string{}
		for _, p := range pts {
			d := p.Config.Describe()
			if prev, dup := seen[d]; dup {
				t.Errorf("%s: points %q and %q share identity %q", s.Name, prev, p.Label, d)
			}
			seen[d] = p.Label
		}
	}
}

func TestOptionOverrides(t *testing.T) {
	ladder, ok := Get("channel-ladder")
	if !ok {
		t.Fatal("channel-ladder not registered")
	}
	for _, p := range ladder.Points(Options{N: 64, Budget: 12_345}) {
		if p.Config.N != 64 || p.Config.Budget != 12_345 {
			t.Errorf("%s: overrides not applied: n=%d budget=%d", p.Label, p.Config.N, p.Config.Budget)
		}
		if p.Config.Channels > 32 {
			t.Errorf("%s: C=%d exceeds n/2=32", p.Label, p.Config.Channels)
		}
	}

	pop, ok := Get("population-ladder")
	if !ok {
		t.Fatal("population-ladder not registered")
	}
	ns := map[int]bool{}
	for _, p := range pop.Points(Options{N: 64}) {
		ns[p.Config.N] = true
	}
	if len(ns) < 2 {
		t.Errorf("population-ladder collapsed to %d populations under an N override — n is its axis", len(ns))
	}
}

func TestGetCaseInsensitive(t *testing.T) {
	if _, ok := Get("DUEL"); !ok {
		t.Error("Get is case-sensitive")
	}
	if _, ok := Get("no-such-scenario"); ok {
		t.Error("Get found a scenario that does not exist")
	}
}

func TestRegisterRejectsInvalid(t *testing.T) {
	bad := []Scenario{
		{Name: "", Description: "d", Points: func(Options) []Point { return nil }},
		{Name: "Has Space", Description: "d", Points: func(Options) []Point { return nil }},
		{Name: "UPPER", Description: "d", Points: func(Options) []Point { return nil }},
		{Name: "no-desc", Points: func(Options) []Point { return nil }},
		{Name: "no-points", Description: "d"},
		{Name: "duel", Description: "dup", Points: func(Options) []Point { return nil }},
	}
	for _, s := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register accepted invalid scenario %+v", s.Name)
				}
			}()
			Register(s)
		}()
	}
}

func TestNormalizeAlgorithm(t *testing.T) {
	for _, name := range AlgorithmNames() {
		got, err := NormalizeAlgorithm(strings.ToUpper(name))
		if err != nil || got != name {
			t.Errorf("NormalizeAlgorithm(%q) = %q, %v", strings.ToUpper(name), got, err)
		}
	}
	if _, err := NormalizeAlgorithm("quantum"); err == nil {
		t.Error("NormalizeAlgorithm accepted an unknown algorithm")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := (Config{N: 64, Algorithm: AlgoMultiCastC}).Build(); err == nil {
		t.Error("Build accepted multicast-c without Channels")
	}
	if _, err := (Config{N: 64, Algorithm: "quantum"}).Build(); err == nil {
		t.Error("Build accepted an unknown algorithm")
	}
	if _, err := (Config{N: 64}).Build(); err != nil {
		t.Errorf("Build rejected the default algorithm: %v", err)
	}
}
