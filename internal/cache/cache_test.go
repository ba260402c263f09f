package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"multicast/internal/jsonenc"
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
// re-simulation — both from the Store that wrote it and from a fresh
// Open of the directory, which finds it by scanning the segment.
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
	if got, ok := reopen(t, s).Load(key); !ok || got != want {
		t.Fatalf("reopened store: ok=%v, got %+v", ok, got)
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
// is a miss, never an error. A Put that fails retires its segment, so
// once the directory is back the next Put starts a fresh one.
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
	if err := s.Put(key, testMetrics()); err == nil {
		t.Fatal("Put into a deleted directory reported success")
	}
	if err := os.MkdirAll(s.Dir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, testMetrics()); err != nil {
		t.Fatalf("Put after the directory came back: %v", err)
	}
	if got, ok := reopen(t, s).Load(key); !ok || got != testMetrics() {
		t.Fatalf("re-stored entry: ok=%v", ok)
	}
}

// reopen opens a second Store on s's directory: an index built by
// scanning the segments, not by s's Puts.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	r, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// segment is a store holding three records in one segment file.
type segment struct {
	s    *Store
	path string
	data []byte // the segment's pristine bytes
	keys [3]string
	want [3]sim.Metrics
	end  [3]int // offset just past each record's newline
}

// corpus writes three distinct records and returns their segment.
func corpus(t *testing.T) *segment {
	t.Helper()
	c := &segment{s: openStore(t)}
	next := int64(0) // records are appended back to back
	for i := range c.keys {
		c.keys[i] = Key("n=32", "mcast n=32 adv=random seed=7", uint64(9+i))
		c.want[i] = testMetrics()
		c.want[i].FirstHaltSlot += int64(i)
		if err := c.s.Put(c.keys[i], c.want[i]); err != nil {
			t.Fatal(err)
		}
		path, off, n, ok := c.s.Locate(c.keys[i])
		if !ok || (i > 0 && path != c.path) || off != next {
			t.Fatalf("record %d located at %s+%d, want %s+%d", i, path, off, c.path, next)
		}
		next = off + int64(n)
		c.path, c.end[i] = path, int(next)
	}
	data, err := os.ReadFile(c.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != c.end[2] {
		t.Fatalf("segment holds %d bytes, records end at %d", len(data), c.end[2])
	}
	c.data = data
	return c
}

// loads reads every record through both the writing Store (which
// reads at the offsets it appended to) and a fresh Open (which indexes
// whatever complete lines the segment now holds), and fails on any
// read that is not a miss or the record's original metrics.
func (c *segment) loads(t *testing.T, what string) (hits [2][3]bool) {
	t.Helper()
	for j, s := range []*Store{c.s, reopen(t, c.s)} {
		for i, key := range c.keys {
			m, ok := s.Load(key)
			if ok && m != c.want[i] {
				t.Fatalf("%s: record %d loaded altered metrics", what, i)
			}
			hits[j][i] = ok
		}
	}
	return hits
}

// Every possible truncation of a segment must leave the records wholly
// before the cut, newline included, loading bit-identically and every
// other record a miss — a torn append may cost a re-simulation but can
// never surface damaged metrics. (Mirrors
// campaign.TestReadRejectsTruncatedArtifact, with miss in place of
// ErrCorruptArtifact.)
func TestLoadRejectsTruncatedEntry(t *testing.T) {
	c := corpus(t)
	for cut := 0; cut < len(c.data); cut++ {
		if err := os.WriteFile(c.path, c.data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		hits := c.loads(t, fmt.Sprintf("cut at %d of %d", cut, len(c.data)))
		for j := range hits {
			for i, hit := range hits[j] {
				if whole := c.end[i] <= cut; hit != whole {
					t.Fatalf("cut at %d of %d: store %d record %d hit=%v, want %v",
						cut, len(c.data), j, i, hit, whole)
				}
			}
		}
	}
}

// No single-bit flip anywhere in the middle record may load with
// changed content: most flips must miss, and any that loaded would have
// to load exactly the original metrics. Since Load checks the record's
// raw bytes, every flip misses (TestEveryBitFlipMisses pins that on the
// record alone). The neighbours' bytes are untouched, so the first
// record always hits; the third may be lost to a fresh Open when the
// flip joins or splits lines. (Mirrors
// campaign.TestReadRejectsBitFlippedArtifact.)
func TestLoadRejectsBitFlippedEntry(t *testing.T) {
	c := corpus(t)
	flips, misses := 0, 0
	for n := c.end[0]; n < c.end[1]; n++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), c.data...)
			mut[n] ^= 1 << bit
			if err := os.WriteFile(c.path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("bit %d of byte %d", bit, n)
			hits := c.loads(t, what)
			if !hits[0][0] || !hits[1][0] || !hits[0][2] {
				t.Fatalf("%s: an undamaged record missed: %v", what, hits)
			}
			flips++
			if !hits[0][1] {
				misses++
			}
		}
	}
	if misses < flips/2 {
		t.Errorf("only %d of %d flips missed — the checksum sweep looks wrong", misses, flips)
	}
	// The pristine bytes still hit — the loop's misses were the damage,
	// not a latent verification bug.
	if err := os.WriteFile(c.path, c.data, 0o644); err != nil {
		t.Fatal(err)
	}
	for j, row := range c.loads(t, "pristine") {
		if row != [3]bool{true, true, true} {
			t.Fatalf("pristine segment, store %d: hits %v", j, row)
		}
	}
}

// An intact record found under another key's address must miss: the
// index addresses records by the key's first 8 bytes, so the record's
// full key pins the identity its bytes answer for.
func TestLoadRejectsMiskeyedEntry(t *testing.T) {
	c := corpus(t)
	other := []byte(c.keys[0])
	for i := 16; i < len(other); i++ {
		other[i] = "1032547698badcfe"[strings.IndexByte("0123456789abcdef", other[i])]
	}
	if _, ok := c.s.Load(string(other)); ok {
		t.Fatal("record of a key sharing the 8-byte prefix was accepted")
	}
	if m, ok := c.s.Load(c.keys[0]); !ok || m != c.want[0] {
		t.Fatal("the prefix owner's record no longer loads")
	}
}

// writeSegment writes data as a segment file of s's directory and
// returns a Store opened over it.
func writeSegment(t *testing.T, s *Store, name string, data []byte) *Store {
	t.Helper()
	if err := os.WriteFile(filepath.Join(s.Dir(), name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return reopen(t, s)
}

// A record from another cache schema version must miss even when its
// checksum verifies — the version gate runs first, so a format change
// can never be misdecoded.
func TestLoadRejectsForeignSchemaVersion(t *testing.T) {
	s := openStore(t)
	key := Key("n=32", "mcast n=32 adv=random seed=7", 9)
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
	if _, ok := writeSegment(t, s, "foreign.seg", append(data, '\n')).Load(key); ok {
		t.Fatal("foreign schema version was accepted")
	}
}

// Anything in the directory that is not a complete segment line with
// a readable key — junk lines, a valid record glued to the end of an
// over-long line or missing its newline, an empty segment, a directory
// named like a segment, a segment that cannot be opened, an entry file
// of the former one-file-per-cell layout — is skipped by Open without
// an error and reads as a miss, and the store still works.
func TestOpenSkipsJunk(t *testing.T) {
	s := openStore(t)
	key := Key("n=32", "mcast n=32 adv=random seed=7", 9)
	e := entry{SchemaVersion: SchemaVersion, Key: key, Metrics: testMetrics()}
	rec, at, err := e.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec = append(jsonenc.SpliceChecksum(rec, at), '\n')
	oldPath := filepath.Join(s.Dir(), key[:2], key[2:]+".json")
	if err := os.MkdirAll(filepath.Dir(oldPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldPath, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(s.Dir(), "dir.seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("missing", filepath.Join(s.Dir(), "dangling.seg")); err != nil {
		t.Fatal(err)
	}
	junk := "\x00\xff not a record\n,\"key\":\"" + key[:15] + "\n,\"key\":\"" + strings.ToUpper(key) +
		"\n" + strings.Repeat("x", scanBuf) + string(rec) + string(rec[:len(rec)-1])
	writeSegment(t, s, "empty.seg", nil)
	r := writeSegment(t, s, "junk.seg", []byte(junk))
	if _, ok := r.Load(key); ok {
		t.Fatal("junk loaded as a hit")
	}
	if err := r.Put(key, testMetrics()); err != nil {
		t.Fatal(err)
	}
	if m, ok := reopen(t, r).Load(key); !ok || m != testMetrics() {
		t.Fatalf("store over junk: ok=%v", ok)
	}
}

// The last record for a key wins, across segments too: a record
// re-stored after damage, in a segment created later, is the one a
// later Open finds, so a damaged record costs one re-simulation, not
// one per run.
func TestLastRecordWins(t *testing.T) {
	c := corpus(t)
	mut := append([]byte(nil), c.data...)
	mut[c.end[0]+40] ^= 0xff // inside the middle record's checksum
	if err := os.WriteFile(c.path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, c.s)
	if _, ok := r.Load(c.keys[1]); ok {
		t.Fatal("damaged record loaded")
	}
	if err := r.Put(c.keys[1], c.want[1]); err != nil {
		t.Fatal(err)
	}
	if row := c.loads(t, "re-stored"); row[1] != [3]bool{true, true, true} {
		t.Fatalf("after re-storing the damaged record, a fresh Open hits %v", row[1])
	}
}

// The committed record was written by the encoding/json encoder the
// append encoder replaced, as a file of the one-file-per-cell layout.
// Copied into a segment it must still hit, and Put of the metrics it
// holds must append it again byte for byte — a changed byte would turn
// every warm cache into misses without a word.
func TestEntryFixtureByteIdentical(t *testing.T) {
	const fixture = "testdata/entry.json"
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("C=8", "mcast n=64 adv=random frac=0.5 seed=7", 11)
	m, ok := writeSegment(t, openStore(t), "fixture.seg", want).Load(key)
	if !ok {
		t.Fatalf("%s does not load under key %s", fixture, key)
	}
	fresh := openStore(t)
	if err := fresh.Put(key, m); err != nil {
		t.Fatal(err)
	}
	path, off, n, _ := fresh.Locate(key)
	if got, err := os.ReadFile(path); err != nil || off != 0 || n != len(got) || !bytes.Equal(got, want) {
		t.Fatalf("re-put record differs from %s (%v):\n%s", fixture, err, got)
	}
}

// Put and Load from 8 goroutines over two Stores on one directory:
// each Store appends to its own segment, so neither damages the
// other's records, and a third Open indexes both segments.
func TestConcurrentStores(t *testing.T) {
	a := openStore(t)
	b := reopen(t, a)
	const goroutines, perG = 8, 25
	key := func(g, i int) string { return Key(fmt.Sprintf("g=%d", g), "w", uint64(i)) }
	metrics := func(g, i int) sim.Metrics {
		m := testMetrics()
		m.Slots, m.FirstHaltSlot = int64(g), int64(i)
		return m
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		s := []*Store{a, b}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := s.Put(key(g, i), metrics(g, i)); err != nil {
					t.Error(err)
					return
				}
				if m, ok := s.Load(key(g, i)); !ok || m != metrics(g, i) {
					t.Errorf("goroutine %d: own record %d: ok=%v", g, i, ok)
				}
				// A sibling's record, written through either Store: a hit
				// must be exact, and a miss is allowed.
				o := (g + 1) % goroutines
				if m, ok := s.Load(key(o, i)); ok && m != metrics(o, i) {
					t.Errorf("goroutine %d: record %d of goroutine %d altered", g, i, o)
				}
			}
		}()
	}
	wg.Wait()
	segs, err := filepath.Glob(filepath.Join(a.Dir(), "*"+segExt))
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments %v (%v), want one per store", segs, err)
	}
	c := reopen(t, a)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if m, ok := c.Load(key(g, i)); !ok || m != metrics(g, i) {
				t.Fatalf("third store: record %d of goroutine %d: ok=%v", i, g, ok)
			}
		}
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

// BenchmarkStore times the cache layer's calls: Put into a cold store,
// Load of a record that is there and of one that is not, and Open over
// a directory of 10 000 records (one campaign's worth, as perfbench's
// replay-warm pre-fills).
func BenchmarkStore(b *testing.B) {
	const records = 10000
	keys := make([]string, records)
	for i := range keys {
		keys[i] = Key("n=16", "mcast n=16 adv=random seed=1", uint64(i))
	}
	m := testMetrics()
	full, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for _, key := range keys {
		if err := full.Put(key, m); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Put", func(b *testing.B) {
		s, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		i := 0
		for b.Loop() {
			if err := s.Put(keys[i%records], m); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.Run("LoadHit", func(b *testing.B) {
		i := 0
		for b.Loop() {
			if _, ok := full.Load(keys[i%records]); !ok {
				b.Fatal("miss")
			}
			i++
		}
	})
	b.Run("LoadMiss", func(b *testing.B) {
		absent := Key("n=16", "mcast n=16 adv=random seed=1", records)
		for b.Loop() {
			if _, ok := full.Load(absent); ok {
				b.Fatal("hit")
			}
		}
	})
	b.Run("Open", func(b *testing.B) {
		for b.Loop() {
			if _, err := Open(full.Dir()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
