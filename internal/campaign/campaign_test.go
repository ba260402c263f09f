package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

func mcast(n int) func() (protocol.Algorithm, error) {
	return func() (protocol.Algorithm, error) { return core.NewMultiCast(core.Sim(), n) }
}

// testPoints is a two-point workload grid with distinct populations and
// adversaries, so cross-point mixups cannot cancel out.
func testPoints() []sim.Config {
	return []sim.Config{
		{N: 32, Algorithm: mcast(32), Adversary: adversary.RandomFraction(0.4), Budget: 10_000, Seed: 7},
		{N: 64, Algorithm: mcast(64), Adversary: adversary.FullBurst(0), Budget: 15_000, Seed: 7},
	}
}

// template builds the campaign summary skeleton the test points belong
// to (seed must match the points' base seed).
func template(trials int) *Summary {
	return New("test-sweep", 7, trials, []Point{
		{Label: "n=32", Workload: "mcast n=32 adv=random seed=7"},
		{Label: "n=64", Workload: "mcast n=64 adv=burst seed=7"},
	})
}

// runShard executes shard i/k of the test grid into a fresh shard
// summary, optionally through a Checkpointer.
func runShard(t *testing.T, trials, i, k int) *Summary {
	t.Helper()
	s := template(trials).CloneEmpty()
	s.ShardIndex, s.ShardCount = i, k
	err := runner.RunSweep(context.Background(), testPoints(),
		runner.SweepPlan{Trials: trials, Shard: runner.Shard{Index: i, Count: k}, Workers: 2},
		func(p, tr int, m sim.Metrics) error { return s.Points[p].Collector.Add(tr, m) })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := runShard(t, 5, 1, 3)
	path := filepath.Join(dir, "s1.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Identity() != s.Identity() {
		t.Errorf("identity changed across the round trip:\n got %q\nwant %q", got.Identity(), s.Identity())
	}
	if got.ShardIndex != 1 || got.ShardCount != 3 {
		t.Errorf("shard %d/%d, want 1/3", got.ShardIndex, got.ShardCount)
	}
	if got.Cells() != s.Cells() {
		t.Errorf("cells %d, want %d", got.Cells(), s.Cells())
	}
	// The strong form: re-marshalling the decoded summary reproduces the
	// original bytes, so nothing was dropped or reordered.
	a, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("round-tripped summary re-marshals differently")
	}
}

// A base seed of 2^63 or more — Seed is a uint64 — survives both write
// paths: Write then Read, and Flush then Resume, byte for byte.
func TestMaxSeedRoundTrips(t *testing.T) {
	dir := t.TempDir()
	tmpl := New("max-seed", math.MaxUint64, 3, []Point{{Label: "a", Workload: "w seed=max"}})
	ck := NewCheckpointer(filepath.Join(dir, "shard.ckpt"), tmpl, 1)
	for tr := 0; tr < 2; tr++ {
		if err := ck.Add(0, tr, sim.Metrics{Slots: int64(10 + tr), MeanNodeEnergy: 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	flushed, err := os.ReadFile(filepath.Join(dir, "shard.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewCheckpointer(filepath.Join(dir, "shard.ckpt"), tmpl, 1)
	if done, err := resumed.Resume(); err != nil || done != 2 || resumed.Summary().Seed != math.MaxUint64 {
		t.Fatalf("Resume = %d, %v, seed %d; want 2 cells at seed %d", done, err, resumed.Summary().Seed, uint64(math.MaxUint64))
	}
	if err := resumed.Flush(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(filepath.Join(dir, "shard.ckpt")); err != nil || !bytes.Equal(again, flushed) {
		t.Fatalf("re-flushed sidecar differs (%v):\n%s\nwant\n%s", err, again, flushed)
	}

	path := filepath.Join(dir, "artifact.json")
	if err := resumed.WriteArtifact(path, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`"seed": 18446744073709551615,`)) {
		t.Fatalf("artifact does not carry the seed:\n%s", want)
	}
	got, err := Read(path)
	if err != nil || got.Seed != math.MaxUint64 {
		t.Fatalf("Read: seed %v, %v", got, err)
	}
	if err := got.Write(path); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("re-written artifact differs (%v)", err)
	}
}

// Artifacts from a future (or pre-versioned legacy) tool must be
// refused by version, naming both versions — not silently decoded with
// their unknown fields dropped.
func TestReadRefusesUnknownSchemaVersion(t *testing.T) {
	dir := t.TempDir()
	s := runShard(t, 2, 0, 1)
	for _, tc := range []struct {
		name    string
		version int
	}{
		{"future", 99},
		{"legacy-unversioned", 0},
	} {
		var raw map[string]any
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		if tc.version == 0 {
			delete(raw, "schema_version")
		} else {
			raw["schema_version"] = tc.version
		}
		data, err = json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Read(path)
		if err == nil {
			t.Fatalf("%s: accepted schema version %d", tc.name, tc.version)
		}
		for _, want := range []string{
			"schema version", strconv.Itoa(tc.version), strconv.Itoa(SchemaVersion),
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}

// Merging the k shard artifacts of one campaign must reproduce the
// unsharded run's summaries bit for bit — through the JSON round trip,
// exactly as the cross-machine flow ships them.
func TestMergeMatchesUnsharded(t *testing.T) {
	const trials, k = 7, 3
	dir := t.TempDir()
	whole := runShard(t, trials, 0, 1)
	var in []Input
	for i := 0; i < k; i++ {
		path := filepath.Join(dir, "s.json")
		if err := runShard(t, trials, i, k).Write(path); err != nil {
			t.Fatal(err)
		}
		s, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, Input{Name: path, Sum: s})
	}
	merged, err := Merge(in)
	if err != nil {
		t.Fatal(err)
	}
	if merged.ShardIndex != 0 || merged.ShardCount != 1 {
		t.Errorf("merged summary is shard %d/%d, want 0/1", merged.ShardIndex, merged.ShardCount)
	}
	if merged.Identity() != whole.Identity() {
		t.Errorf("merged identity %q != unsharded %q", merged.Identity(), whole.Identity())
	}
	for p := range whole.Points {
		got, want := merged.Points[p].Collector, whole.Points[p].Collector
		if got.Trials() != want.Trials() {
			t.Fatalf("point %d: %d trials, want %d", p, got.Trials(), want.Trials())
		}
		if got.Slots() != want.Slots() || got.MaxEnergy() != want.MaxEnergy() ||
			got.SourceEnergy() != want.SourceEnergy() || got.MeanEnergy() != want.MeanEnergy() ||
			got.EveEnergy() != want.EveEnergy() || got.AllInformed() != want.AllInformed() {
			t.Errorf("point %d: merged summaries diverge from the unsharded run", p)
		}
		if got.Invariants() != want.Invariants() {
			t.Errorf("point %d: invariant counts diverge", p)
		}
	}
}

func TestMergeRefusals(t *testing.T) {
	const trials = 3
	shard := func(i, k int) *Summary { return runShard(t, trials, i, k) }
	input := func(name string, s *Summary) Input { return Input{Name: name, Sum: s} }

	t.Run("identity mismatch", func(t *testing.T) {
		other := shard(1, 2)
		other.Seed++ // a different campaign
		_, err := Merge([]Input{input("a", shard(0, 2)), input("b", other)})
		if err == nil || !strings.Contains(err.Error(), "different campaign") {
			t.Errorf("err = %v, want a different-campaign refusal", err)
		}
	})
	t.Run("missing shard", func(t *testing.T) {
		_, err := Merge([]Input{input("a", shard(0, 3)), input("b", shard(1, 3))})
		if err == nil || !strings.Contains(err.Error(), "missing shard") {
			t.Errorf("err = %v, want a missing-shard refusal", err)
		}
	})
	t.Run("duplicate shard", func(t *testing.T) {
		_, err := Merge([]Input{input("a", shard(0, 2)), input("b", shard(0, 2))})
		if err == nil || !strings.Contains(err.Error(), "duplicates shard") {
			t.Errorf("err = %v, want a duplicate-shard refusal", err)
		}
	})
	t.Run("mixed split counts", func(t *testing.T) {
		_, err := Merge([]Input{input("a", shard(0, 2)), input("b", shard(1, 3))})
		if err == nil || !strings.Contains(err.Error(), "-way split") {
			t.Errorf("err = %v, want a mixed-split refusal", err)
		}
	})
	t.Run("single vs sweep", func(t *testing.T) {
		single := New("", 7, trials, []Point{{Label: "multicast", Workload: "mcast n=64"}})
		_, err := Merge([]Input{input("a", shard(0, 1)), input("b", single)})
		if err == nil || !strings.Contains(err.Error(), "different campaign") {
			t.Errorf("err = %v, want a different-campaign refusal", err)
		}
	})
	t.Run("corrupt trial coverage", func(t *testing.T) {
		short := shard(0, 1)
		short.Trials++ // claims more trials than its collectors hold
		_, err := Merge([]Input{input("a", short)})
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("err = %v, want a corrupt-coverage refusal", err)
		}
	})
}
