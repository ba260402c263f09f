package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"multicast/internal/campaign"
	"multicast/internal/jsonenc"
	"multicast/internal/sim"
)

// checksum returns the entry's content digest: the hex sha256 of its
// encoding with the Checksum field empty — what Put splices in — for
// forging records Put would not write.
func (e *entry) checksum() (string, error) {
	c := *e
	c.Checksum = ""
	data, _, err := c.appendJSON(nil)
	if err != nil {
		return "", err
	}
	return digest(data), nil
}

// digest is a content digest: the hex sha256 of data.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// keyStrings are labels and workloads that %q renders with escapes:
// quotes, backslashes, control bytes, invalid UTF-8, printable and
// non-printable non-ASCII.
var keyStrings = []string{
	"", "C=8", "mcast n=64 adv=random frac=0.5 seed=7", `say "hi"\n`, "tab\there\x00\x7f\x1b",
	"\xff\xfe bad \xe2\x80", "héllo ✓", "\u00a0\ufeff\u2028\U0001F600", "`back`",
}

// Key's material is built without fmt but must be byte for byte what
// fmt.Sprintf rendered — every key on disk was derived from that
// rendering, and one differing byte would turn every cached cell into
// a miss.
func TestKeyMatchesFmt(t *testing.T) {
	for _, label := range keyStrings {
		for _, workload := range keyStrings {
			for _, seed := range []uint64{0, 9, 1<<64 - 1} {
				material := fmt.Sprintf("cache=%d campaign=%d label=%q workload=%q seed=%d",
					SchemaVersion, campaign.SchemaVersion, label, workload, seed)
				sum := sha256.Sum256([]byte(material))
				if got, want := Key(label, workload, seed), hex.EncodeToString(sum[:]); got != want {
					t.Fatalf("Key(%q, %q, %d) = %s, fmt rendering gives %s", label, workload, seed, got, want)
				}
			}
		}
	}
}

// A point's key function derives exactly Key's keys, for every seed,
// including labels and workloads too long for the stack buffer.
func TestPointKeyMatchesKey(t *testing.T) {
	long := string(make([]byte, 2*keyBuf))
	for _, label := range append(keyStrings, long) {
		workload := "mcast n=16 adv=random " + label
		key := PointKey(label, workload)
		for _, seed := range []uint64{0, 1, 10, 12345, 1<<64 - 1} {
			if got, want := key(seed), Key(label, workload, seed); got != want {
				t.Fatalf("PointKey(%q, %q)(%d) = %s, Key gives %s", label, workload, seed, got, want)
			}
		}
	}
}

// A hit allocates nothing: Load reads into a stack buffer through the
// segment's held handle and decodes without reflection — whether the
// Store wrote the record or indexed it at Open.
func TestLoadHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := openStore(t)
	key := Key("n=32", "mcast n=32 adv=random seed=7", 9)
	if err := s.Put(key, testMetrics()); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, reopen(t, s)} {
		allocs := testing.AllocsPerRun(100, func() {
			if m, ok := st.Load(key); !ok || m != testMetrics() {
				t.Fatal("stored record did not load")
			}
		})
		if allocs != 0 {
			t.Fatalf("a hit allocates %v times", allocs)
		}
	}
}

// Close releases the handles: a Load after it is a miss, never a panic
// or an error, and a second Close is harmless. Put still appends, and a
// Store reopened on the directory hits both records.
func TestCloseMissesAndReopenHits(t *testing.T) {
	s := openStore(t)
	key, later := Key("a", "b", 1), Key("a", "b", 2)
	if err := s.Put(key, testMetrics()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key); !ok {
		t.Fatal("stored record did not load")
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
		if _, ok := s.Load(key); ok {
			t.Fatalf("Load after Close %d hit", i)
		}
	}
	if err := s.Put(later, testMetrics()); err != nil {
		t.Fatalf("Put after Close: %v", err)
	}
	r := reopen(t, s)
	for _, k := range []string{key, later} {
		if m, ok := r.Load(k); !ok || m != testMetrics() {
			t.Fatalf("reopened store: ok=%v", ok)
		}
	}
}

// A handle is held from a Store's first read of a segment until Close,
// and reads the file as it is now: a record damaged in place after the
// handle opened misses, and hits again once repaired. A segment deleted
// after the Store read from it keeps serving verified records to that
// Store — it opened the cache before the deletion — while a Store
// opened after the deletion misses.
func TestLoadSeesDamageAfterOpen(t *testing.T) {
	c := corpus(t)
	for i, key := range c.keys {
		if m, ok := c.s.Load(key); !ok || m != c.want[i] {
			t.Fatalf("record %d: ok=%v", i, ok)
		}
	}
	f, err := os.OpenFile(c.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := int64(c.end[0]) + int64(len(recordHead)) // the middle record's first checksum digit
	for _, b := range []byte{'x', c.data[at]} {
		if _, err := f.WriteAt([]byte{b}, at); err != nil {
			t.Fatal(err)
		}
		for i, key := range c.keys {
			m, ok := c.s.Load(key)
			if want := i != 1 || b == c.data[at]; ok != want || (ok && m != c.want[i]) {
				t.Fatalf("digit %q: record %d hit=%v, want %v", b, i, ok, want)
			}
		}
	}
	if err := os.Remove(c.path); err != nil {
		t.Fatal(err)
	}
	for i, key := range c.keys {
		if m, ok := c.s.Load(key); !ok || m != c.want[i] {
			t.Fatalf("after deletion: record %d: ok=%v", i, ok)
		}
		if _, ok := reopen(t, c.s).Load(key); ok {
			t.Fatalf("a Store opened after the deletion hit record %d", i)
		}
	}
	if err := c.s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.s.Load(c.keys[0]); ok {
		t.Fatal("Load after Close hit")
	}
}

// Loads from 8 goroutines share one segment handle: every hit is
// exact, and under -race the shared handle, the index and the
// lazily opened handle are race-free. A Close racing the Loads turns
// them into misses, never into a panic or altered metrics.
func TestConcurrentLoadsShareHandle(t *testing.T) {
	const goroutines, records = 8, 50
	s := openStore(t)
	keys := make([]string, records)
	want := make([]sim.Metrics, records)
	for i := range keys {
		keys[i] = Key("n=16", "w", uint64(i))
		want[i] = testMetrics()
		want[i].FirstHaltSlot = int64(i)
		if err := s.Put(keys[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	r := reopen(t, s) // no handle open yet: the first Loads race to open it
	for _, closing := range []bool{false, true} {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 4*records; n++ {
					i := (g*7 + n) % records
					m, ok := r.Load(keys[i])
					if ok && m != want[i] {
						t.Errorf("goroutine %d: record %d altered", g, i)
					}
					if !ok && !closing {
						t.Errorf("goroutine %d: record %d missed", g, i)
					}
				}
			}()
		}
		if closing {
			if err := r.Close(); err != nil {
				t.Error(err)
			}
		}
		wg.Wait()
	}
}

// A record that is not byte for byte what Put writes is a miss even
// when it decodes to the same entry: every other spelling of a number,
// whitespace, a field renamed, reordered, missing or added, upper-case
// checksum digits, a value out of its field's range. Only a hand edit
// can make one. Each edit misses both with the fixture's digits, which
// the canonical re-encoding of a same-entry edit would still match, and
// re-stamped with the digest of its own bytes, so the decoder, not the
// checksum, refuses it. The fixture, re-stamped, still hits.
func TestLoadRejectsNonCanonicalRecord(t *testing.T) {
	fixture, err := os.ReadFile("testdata/entry.json")
	if err != nil {
		t.Fatal(err)
	}
	key := Key("C=8", "mcast n=64 adv=random frac=0.5 seed=7", 11)
	load := func(rec []byte) bool {
		_, ok := writeSegment(t, openStore(t), "edited.seg", rec).Load(key)
		return ok
	}
	if !load(restamp(fixture)) {
		t.Fatal("the re-stamped fixture does not load")
	}
	for i, edit := range []struct{ old, new string }{
		{`"MeanNodeEnergy":0.3333333333333333`, `"MeanNodeEnergy":0.33333333333333330`},
		{`"MeanNodeEnergy":0.3333333333333333`, `"MeanNodeEnergy":3.333333333333333e-1`},
		{`"AllInformedSlot":-1`, `"AllInformedSlot":-1.0`},
		{`"FirstHaltSlot":957`, `"FirstHaltSlot":9.57e2`},
		{`"FirstHaltSlot":957`, `"FirstHaltSlot":0957`},
		{`"FirstHaltSlot":957`, `"FirstHaltSlot":+957`},
		{`,0,0,0,8,`, `,-0,0,0,8,`},
		{`2147483647,`, `2147483648,`},
		{`-2147483648]`, `-2147483649]`},
		{`"Slots":9007199254740993`, `"Slots": 9007199254740993`},
		{`"Slots":9007199254740993`, `"slots":9007199254740993`},
		{`"Slots":9007199254740993,"MaxNodeEnergy":9223372036854775807`,
			`"MaxNodeEnergy":9223372036854775807,"Slots":9007199254740993`},
		{`"SourceEnergy":-9223372036854775808,`, ``},
		{`"EveEnergy":`, `"Extra":1,"EveEnergy":`},
		{`"HaltBeforeAllHelpers":4}`, `"HaltBeforeAllHelpers":4,"Other":0}`},
		{`,0,-2147483648]`, `,-2147483648]`},
		{`}}`, `} }`},
		{`{"schema_version":1,`, `{"schema_version":1 ,`},
		{`"key":"afb3`, `"key":"AFB3`},
	} {
		rec := []byte(strings.Replace(string(fixture), edit.old, edit.new, 1))
		if string(rec) == string(fixture) {
			t.Fatalf("edit %d (%s) did not apply", i, edit.old)
		}
		if load(rec) || load(restamp(rec)) {
			t.Errorf("edit %d: %s → %s loaded", i, edit.old, edit.new)
		}
	}
	upper := restamp(fixture)
	at := len(recordHead)
	copy(upper[at:], strings.ToUpper(string(upper[at:at+jsonenc.DigestLen])))
	if load(upper) {
		t.Error("upper-case checksum digits loaded")
	}
}

// Every single-bit flip anywhere in a record, newline included, misses:
// the checksum covers every byte but its own digits, and a flipped digit
// no longer matches. Decoding and re-encoding used to let a flip inside
// a field name through, because the decoder matched names
// case-insensitively and ignored unknown ones.
func TestEveryBitFlipMisses(t *testing.T) {
	fixture, err := os.ReadFile("testdata/entry.json")
	if err != nil {
		t.Fatal(err)
	}
	key := Key("C=8", "mcast n=64 adv=random frac=0.5 seed=7", 11)
	if _, ok := readRecord(append([]byte(nil), fixture...), key); !ok {
		t.Fatal("the fixture does not read")
	}
	for i := range fixture {
		for bit := 0; bit < 8; bit++ {
			rec := append([]byte(nil), fixture...)
			rec[i] ^= 1 << bit
			if _, ok := readRecord(rec, key); ok {
				t.Fatalf("bit %d of byte %d (%q) flipped still reads", bit, i, fixture[i])
			}
		}
	}
}

// FuzzCacheRecord feeds arbitrary bytes to the record reader Load uses.
// It never panics, and whatever it accepts as the record of key
// re-encodes byte for byte — what Put writes for that key and those
// metrics, checksum spliced in — so only a record Put could have
// written is ever a hit. The checksum stops almost every mutation, so
// each input is also read re-stamped with the digest of its own bytes:
// the decoder meets the mutations too.
func FuzzCacheRecord(f *testing.F) {
	fixture, err := os.ReadFile("testdata/entry.json")
	if err != nil {
		f.Fatal(err)
	}
	key := Key("C=8", "mcast n=64 adv=random frac=0.5 seed=7", 11)
	flipped := append([]byte(nil), fixture...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(fixture, key)
	f.Add(fixture[:len(fixture)/2], key)
	f.Add(flipped, key)
	f.Fuzz(func(t *testing.T, rec []byte, key string) {
		for _, in := range [][]byte{rec, restamp(rec)} {
			if in == nil {
				continue
			}
			m, ok := readRecord(append([]byte(nil), in...), key)
			if !ok {
				continue
			}
			e := entry{SchemaVersion: SchemaVersion, Key: key, Metrics: m}
			data, at, err := e.appendJSON(nil)
			if err != nil {
				t.Fatalf("accepted metrics do not encode: %v", err)
			}
			if data = append(jsonenc.SpliceChecksum(data, at), '\n'); string(data) != string(in) {
				t.Fatalf("accepted record\n%q\nre-encodes as\n%q", in, data)
			}
		}
	})
}

// restamp returns a copy of rec with its checksum digits replaced by
// the digest of its own bytes (newline and digits cut out), or nil if
// rec is too short to hold digits where a record holds them.
func restamp(rec []byte) []byte {
	at := len(recordHead)
	if len(rec) < at+jsonenc.DigestLen+1 {
		return nil
	}
	body := append(append([]byte(nil), rec[:at]...), rec[at+jsonenc.DigestLen:len(rec)-1]...)
	out := append([]byte(nil), rec...)
	copy(out[at:], digest(body))
	return out
}

// BenchmarkKey times a cell key derived on its own (Key, as perfbench's
// cache.key_us times it) and from a point's key function (PointKey, as
// a campaign derives every key of its grid), on replay-warm's shape of
// label and workload.
func BenchmarkKey(b *testing.B) {
	const label = "n=16 adv=random"
	const workload = "mcast n=16 C=8 budget=500 adv=random frac=0.5 seed=3"
	b.Run("Key", func(b *testing.B) {
		seed := uint64(0)
		for b.Loop() {
			_ = Key(label, workload, seed)
			seed++
		}
	})
	b.Run("PointKey", func(b *testing.B) {
		key := PointKey(label, workload)
		seed := uint64(0)
		for b.Loop() {
			_ = key(seed)
			seed++
		}
	})
}
