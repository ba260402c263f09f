package cache

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"multicast/internal/sim"
)

// testMetrics carries values that stress JSON round-tripping: a
// non-terminating binary fraction, negatives, sentinel -1s, and an
// int64 beyond float64's contiguous integer range.
func testMetrics() sim.Metrics {
	m := sim.Metrics{
		Slots:           9007199254740993, // 2^53 + 1: float64 would corrupt it
		MaxNodeEnergy:   123456789,
		SourceEnergy:    42,
		MeanNodeEnergy:  1.0 / 3.0,
		EveEnergy:       987654321,
		AllInformedSlot: -1,
		FirstHelperSlot: -1,
		FirstHaltSlot:   77,
	}
	m.Invariants.HaltedUninformed = 3
	m.HelperJCounts[5] = 11
	m.HelperJCounts[sim.MaxHelperJBucket] = 2
	return m
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A stored entry must load back as exactly the metrics that went in —
// the cache's whole value rests on hits being bit-identical to
// re-simulation.
func TestPutLoadRoundTrip(t *testing.T) {
	s := openStore(t)
	key := Key("n=32", "mcast n=32 adv=random seed=7", 9)
	want := testMetrics()
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(key)
	if !ok {
		t.Fatal("stored entry did not load")
	}
	if got != want {
		t.Fatalf("round trip diverged:\n got  %+v\n want %+v", got, want)
	}
	// A second Put of the same result must be idempotent.
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Load(key); !ok || got != want {
		t.Fatalf("re-put entry diverged: ok=%v", ok)
	}
}

// Key must separate every identity dimension — two cells agreeing on
// all but one of (label, workload, seed) must never share an address.
func TestKeySeparatesIdentities(t *testing.T) {
	base := Key("n=32", "mcast n=32 adv=random seed=7", 9)
	if base != Key("n=32", "mcast n=32 adv=random seed=7", 9) {
		t.Fatal("key is not deterministic")
	}
	for name, other := range map[string]string{
		"label":    Key("n=64", "mcast n=32 adv=random seed=7", 9),
		"workload": Key("n=32", "mcast n=32 adv=burst seed=7", 9),
		"seed":     Key("n=32", "mcast n=32 adv=random seed=7", 10),
	} {
		if other == base {
			t.Errorf("keys collide when only %s differs", name)
		}
	}
}

// An absent entry — or a cache rooted in a since-deleted directory —
// is a miss, never an error.
func TestLoadMissesOnAbsence(t *testing.T) {
	s := openStore(t)
	key := Key("a", "b", 1)
	if _, ok := s.Load(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key, testMetrics()); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(s.Dir()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key); ok {
		t.Fatal("evicted store reported a hit")
	}
}

// corpus writes one entry and returns its path and pristine bytes.
func corpus(t *testing.T) (*Store, string, string, []byte) {
	t.Helper()
	s := openStore(t)
	key := Key("n=32", "mcast n=32 adv=random seed=7", 9)
	if err := s.Put(key, testMetrics()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.EntryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	return s, key, s.EntryPath(key), data
}

// Every possible truncation of an entry must read as a miss — a torn
// cache write may cost a re-simulation but can never surface damaged
// metrics. (Mirrors campaign.TestReadRejectsTruncatedArtifact, with
// miss in place of ErrCorruptArtifact.) Cutting only the trailing
// newline leaves the content bit-for-bit intact, so a hit there must
// equal the original exactly.
func TestLoadRejectsTruncatedEntry(t *testing.T) {
	s, key, path, data := corpus(t)
	want := testMetrics()
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok := s.Load(key)
		if ok && m != want {
			t.Fatalf("truncation to %d of %d bytes loaded altered metrics", cut, len(data))
		}
	}
}

// No single-bit flip anywhere in an entry may load with changed
// content: most flips must miss, and the ones that decode at all must
// load exactly the original metrics. Two flip classes survive
// decoding — a case flip inside a JSON key name (Go matches field
// names case-insensitively) and any flip inside the name of a
// zero-valued field (the mangled name is ignored as unknown, leaving
// the zero in place) — and in both the canonical re-encoding equals
// the original, so the checksum rightly verifies. (Mirrors
// campaign.TestReadRejectsBitFlippedArtifact.)
func TestLoadRejectsBitFlippedEntry(t *testing.T) {
	s, key, path, data := corpus(t)
	want := testMetrics()
	misses := 0
	for n := range data {
		mut := append([]byte(nil), data...)
		mut[n] ^= 1 << (n % 8) // vary the flipped bit with position
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok := s.Load(key)
		if !ok {
			misses++
			continue
		}
		if m != want {
			t.Fatalf("bit flip at byte %d (of %d) was accepted with changed content", n, len(data))
		}
	}
	if misses < len(data)/2 {
		t.Errorf("only %d of %d flips missed — the checksum sweep looks wrong", misses, len(data))
	}
	// The pristine bytes still hit — the loop's misses were the damage,
	// not a latent verification bug.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key); !ok {
		t.Fatal("pristine entry no longer loads")
	}
}

// An intact entry delivered at the wrong address — a renamed file, a
// colliding copy — must miss: the stored key pins the identity the
// bytes answer for.
func TestLoadRejectsMiskeyedEntry(t *testing.T) {
	s, _, path, data := corpus(t)
	other := Key("n=64", "mcast n=64 adv=burst seed=7", 3)
	otherPath := s.EntryPath(other)
	if err := os.MkdirAll(filepath.Dir(otherPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(otherPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(other); ok {
		t.Fatal("entry misdelivered to another key was accepted")
	}
	_ = path
}

// An entry from another cache schema version must miss even when its
// checksum verifies — the version gate runs first, so a format change
// can never be misdecoded.
func TestLoadRejectsForeignSchemaVersion(t *testing.T) {
	s, key, path, _ := corpus(t)
	e := entry{SchemaVersion: SchemaVersion + 1, Key: key, Metrics: testMetrics()}
	sum, err := e.checksum()
	if err != nil {
		t.Fatal(err)
	}
	e.Checksum = sum
	data, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key); ok {
		t.Fatal("foreign schema version was accepted")
	}
}

// The committed entry was written by the encoding/json encoder the
// append encoder replaced. It must still hit, and Put of the metrics it
// holds must write it again byte for byte — a changed byte would turn
// every warm cache into misses without a word.
func TestEntryFixtureByteIdentical(t *testing.T) {
	const fixture = "testdata/entry.json"
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("C=8", "mcast n=64 adv=random frac=0.5 seed=7", 11)
	s := openStore(t)
	path := s.EntryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Load(key)
	if !ok {
		t.Fatalf("%s does not load under key %s", fixture, key)
	}
	fresh := openStore(t)
	if err := fresh.Put(key, m); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(fresh.EntryPath(key)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-put entry differs from %s (%v):\n%s", fixture, err, got)
	}
}

// The entry encoder must write exactly what encoding/json writes for
// the entry struct — the sim.Metrics field names, every float on both
// sides of the notation switch, integers at their extremes — and refuse
// a non-finite mean energy as encoding/json does.
func TestEntryEncodingMatchesEncodingJSON(t *testing.T) {
	for _, mean := range []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, math.Nextafter(1e-6, 0), 1.0 / 3,
		1e21, math.Nextafter(1e21, 0), -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		m := testMetrics()
		m.MeanNodeEnergy = mean
		m.EveEnergy = math.MinInt64
		m.HelperJCounts[1] = math.MaxInt32
		m.HelperJCounts[2] = math.MinInt32
		m.Invariants = sim.InvariantCounts{HaltedUninformed: -1, HaltBeforeAllInformed: 2,
			HelperBeforeAllInformed: 3, HaltBeforeAllHelpers: math.MaxInt}
		e := entry{SchemaVersion: SchemaVersion, Checksum: "c<&>", Key: "k\x01", Metrics: m}
		want, werr := json.Marshal(&e)
		got, _, err := e.appendJSON(nil)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("mean %v: err %v, encoding/json: %v", mean, err, werr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("mean %v: appendJSON =\n%s\nencoding/json:\n%s", mean, got, want)
		}
		if werr != nil {
			if err := openStore(t).Put(Key("a", "b", 1), m); err == nil {
				t.Errorf("mean %v: Put accepted a non-finite mean energy", mean)
			}
		}
	}
}
