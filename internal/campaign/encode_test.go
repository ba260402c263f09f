package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multicast/internal/jsonenc"
	"multicast/internal/runner"
	"multicast/internal/sim"
	"multicast/internal/stats"
)

// The mirror structs restate the artifact wire format as plain tagged
// structs without marshal methods, so encoding/json encodes them by
// reflection: the reference the append encoders must match byte for
// byte.
type accumMirror struct {
	Count   int64     `json:"count"`
	Dropped int64     `json:"dropped,omitempty"`
	Mean    float64   `json:"mean"`
	M2      float64   `json:"m2"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Cap     int       `json:"cap"`
	Samples []float64 `json:"samples"`
}

type collectorMirror struct {
	Trials       int64               `json:"trials"`
	Slots        *accumMirror        `json:"slots"`
	MaxEnergy    *accumMirror        `json:"max_node_energy"`
	SourceEnergy *accumMirror        `json:"source_energy"`
	MeanEnergy   *accumMirror        `json:"mean_node_energy"`
	EveEnergy    *accumMirror        `json:"eve_energy"`
	AllInformed  *accumMirror        `json:"all_informed_slot"`
	Invariants   sim.InvariantCounts `json:"invariants"`
}

type pointMirror struct {
	Label     string           `json:"label"`
	Workload  string           `json:"workload"`
	Collector *collectorMirror `json:"collector"`
}

type summaryMirror struct {
	SchemaVersion int           `json:"schema_version"`
	Tool          string        `json:"tool"`
	Checksum      string        `json:"checksum"`
	Scenario      string        `json:"scenario,omitempty"`
	Seed          uint64        `json:"seed"`
	Trials        int           `json:"trials"`
	ShardIndex    int           `json:"shard_index"`
	ShardCount    int           `json:"shard_count"`
	Points        []pointMirror `json:"points"`
}

type checkpointMirror struct {
	SchemaVersion int            `json:"schema_version"`
	Checksum      string         `json:"checksum"`
	DoneCells     int            `json:"done_cells"`
	Summary       *summaryMirror `json:"summary"`
	Schedule      string         `json:"schedule,omitempty"`
}

// mustJSON is json.Marshal for values that cannot fail to encode.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameError reports whether two encode errors agree: both nil, or both
// non-nil with the same message.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// fuzzCollector derives a consistent collector state from the fuzz
// inputs: per accumulator, a dropped tally within the trial count, up
// to nsamples retained samples (nil or empty when there are none), a
// cap at least the retained count, and the given floats as moments and
// samples, with non-finite ones (which no decodable state holds)
// replaced by a signed zero. It returns the mirror to decode from and
// the mirror encoding/json must reproduce: min and max read 0 at count
// 0, where the accumulator leaves them meaningless.
func fuzzCollector(trials, drop, nsamples, spare uint8, empty bool, fs [5]float64, seed uint64) (in, want collectorMirror) {
	finite := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return math.Copysign(0, x)
		}
		return x
	}
	T := int64(trials)
	accum := func(k int) (*accumMirror, *accumMirror) {
		d := (int64(drop) + int64(k)) % (T + 1)
		count := T - d
		n := min(int64(nsamples)+int64(k)%2, count)
		var samples []float64
		if n == 0 && empty {
			samples = []float64{}
		}
		for i := int64(0); i < n; i++ {
			samples = append(samples, finite(fs[(int(i)+k)%5]))
		}
		a := &accumMirror{
			Count: count, Dropped: d,
			Mean: finite(fs[k%5]), M2: finite(fs[(k+1)%5]),
			Min: finite(fs[(k+2)%5]), Max: finite(fs[(k+3)%5]),
			Cap: int(max(n, 1)) + int(spare%4), Samples: samples,
		}
		w := *a
		if w.Count == 0 {
			w.Min, w.Max = 0, 0
		}
		return a, &w
	}
	inv := sim.InvariantCounts{
		HaltedUninformed:        int(int8(spare)),
		HaltBeforeAllInformed:   int(seed % 5),
		HelperBeforeAllInformed: int(seed >> 60),
		HaltBeforeAllHelpers:    int(drop),
	}
	in = collectorMirror{Trials: T, Invariants: inv}
	want = in
	in.Slots, want.Slots = accum(0)
	in.MaxEnergy, want.MaxEnergy = accum(1)
	in.SourceEnergy, want.SourceEnergy = accum(2)
	in.MeanEnergy, want.MeanEnergy = accum(3)
	in.EveEnergy, want.EveEnergy = accum(4)
	in.AllInformed, want.AllInformed = accum(5)
	return in, want
}

// emptyCollectorMirror is what a fresh runner.NewCollector encodes as.
func emptyCollectorMirror() *collectorMirror {
	a := func() *accumMirror { return &accumMirror{Cap: stats.DefaultSampleCap} }
	return &collectorMirror{
		Slots: a(), MaxEnergy: a(), SourceEnergy: a(), MeanEnergy: a(), EveEnergy: a(), AllInformed: a(),
	}
}

// FuzzArtifactEncoding pins the append encoders to encoding/json: the
// shared scalar formatting (every float, including -0, subnormals, both
// sides of the 1e-6 and 1e21 notation switch, and the NaN/Inf refusal;
// every string, including <>&, U+2028, control bytes and invalid
// UTF-8), Collector and Accumulator state (nil and empty samples,
// dropped tallies, count 0), and the summary and checkpoint-sidecar
// encoders with and without the per-point cache, up to the bytes
// Summary.WriteWithFault writes and the checksum it stamps. Every
// collector it builds is also read back, compact and indented, and must
// re-encode to the same bytes.
func FuzzArtifactEncoding(f *testing.F) {
	neg0 := math.Copysign(0, -1)
	f.Add("C=8", "mcast n=64 adv=random", "sweep", "steal", uint8(5), uint8(1), uint8(3), false, uint8(2),
		1.5, 1.0/3, 1e-7, 1e21, neg0, uint64(7))
	f.Add("<a&b>", "w\xe2\x80\xa8x\xe2\x80\xa9y\x00\x1f\x7f\"\\", "", "", uint8(0), uint8(0), uint8(0), true, uint8(0),
		5e-324, 2.225073858507201e-308, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), uint64(0))
	f.Add("\xff\xfe", "\xe2\x80", "s\tc\n\r\b\f", "st\xc3\xa9al", uint8(9), uint8(9), uint8(4), false, uint8(5),
		math.NaN(), math.Inf(1), math.Inf(-1), -1e21, 1e300, uint64(1)<<63)
	f.Add("", "", "x", "y", uint8(3), uint8(2), uint8(0), false, uint8(1),
		math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789e-15, 0.1, 999999999999999900000.0, uint64(42))
	f.Fuzz(func(t *testing.T, label, workload, scenario, schedule string, trials, drop, nsamples uint8, empty bool,
		spare uint8, f0, f1, f2, f3, f4 float64, seed uint64) {
		fs := [5]float64{f0, f1, f2, f3, f4}

		// The shared scalars, NaN and Inf included.
		for _, x := range fs {
			got, gerr := jsonenc.AppendFloat([]byte("x"), x)
			want, werr := json.Marshal(x)
			if !sameError(gerr, werr) {
				t.Fatalf("AppendFloat(%v): err %v, encoding/json: %v", x, gerr, werr)
			}
			if gerr == nil && string(got) != "x"+string(want) {
				t.Fatalf("AppendFloat(%v) = %s, encoding/json: %s", x, got[1:], want)
			}
		}
		for _, s := range []string{label, workload, scenario, schedule} {
			if got, want := jsonenc.AppendString(nil, s), mustJSON(t, s); !bytes.Equal(got, want) {
				t.Fatalf("AppendString(%q) = %s, encoding/json: %s", s, got, want)
			}
		}

		// A collector restored from a fuzzed state re-encodes exactly.
		in, want := fuzzCollector(trials, drop, nsamples, spare, empty, fs, seed)
		var c runner.Collector
		if err := json.Unmarshal(mustJSON(t, in), &c); err != nil {
			t.Fatalf("fuzzed collector state did not decode: %v", err)
		}
		cwant := mustJSON(t, want)
		if got, err := c.AppendJSON(nil); err != nil || !bytes.Equal(got, cwant) {
			t.Fatalf("Collector.AppendJSON = %s, %v\nencoding/json:       %s", got, err, cwant)
		}
		rereadCollector(t, cwant)
		fresh, err := runner.NewCollector().AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		rereadCollector(t, fresh)

		// A collector folded from trials keeps its Welford state and
		// drops non-finite mean energies; whatever it holds must encode
		// as encoding/json re-encodes it.
		live := runner.NewCollectorCap(int(nsamples%4) + 1)
		for i, x := range fs {
			m := sim.Metrics{Slots: int64(seed>>i) % 1000, MeanNodeEnergy: x, EveEnergy: int64(i) - 2}
			if err := live.Add(i, m); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := live.AppendJSON(nil); err == nil {
			var back collectorMirror
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("live collector encoding does not decode: %v\n%s", err, got)
			}
			if again := mustJSON(t, back); !bytes.Equal(got, again) {
				t.Fatalf("live collector encoding %s\nre-encodes as %s", got, again)
			}
			rereadCollector(t, got)
		} else if !errors.As(err, new(*json.UnsupportedValueError)) {
			t.Fatalf("live collector: err %v, want encoding/json's unsupported value", err)
		}

		// The summary: header fields are arbitrary, the points vary
		// between none (nil or empty) and two.
		sum := Summary{
			SchemaVersion: int(int8(spare)), Tool: schedule, Scenario: scenario, Seed: seed,
			Trials: int(int16(seed)), ShardIndex: int(drop), ShardCount: int(nsamples),
		}
		smirror := summaryMirror{
			SchemaVersion: sum.SchemaVersion, Tool: sum.Tool, Scenario: sum.Scenario, Seed: sum.Seed,
			Trials: sum.Trials, ShardIndex: sum.ShardIndex, ShardCount: sum.ShardCount,
		}
		switch spare % 5 {
		case 0:
		case 1:
			sum.Points, smirror.Points = []Point{}, []pointMirror{}
		default:
			sum.Points = []Point{
				{Label: label, Workload: workload, Collector: &c},
				{Label: workload, Workload: label, Collector: runner.NewCollector()},
			}
			smirror.Points = []pointMirror{
				{Label: label, Workload: workload, Collector: &want},
				{Label: workload, Workload: label, Collector: emptyCollectorMirror()},
			}
		}
		swant := mustJSON(t, smirror)
		got, at, err := sum.appendJSON(nil, nil)
		if err != nil || !bytes.Equal(got, swant) {
			t.Fatalf("Summary.appendJSON = %s, %v\nencoding/json:       %s", got, err, swant)
		}
		if !bytes.HasSuffix(got[:at], []byte(`"checksum":"`)) || got[at] != '"' {
			t.Fatalf("checksum offset %d does not sit in the empty checksum string: %s", at, got)
		}
		cached := make([][]byte, len(sum.Points))
		for pass := 0; pass < 3; pass++ {
			if pass == 2 && len(cached) > 0 {
				cached[0] = cached[0][:0] // point 0 stale again
			}
			if got, _, err := sum.appendJSON(nil, cached); err != nil || !bytes.Equal(got, swant) {
				t.Fatalf("cached Summary.appendJSON pass %d = %s, %v\nencoding/json: %s", pass, got, err, swant)
			}
		}

		// The checkpoint sidecar, completed by the checksum splice,
		// against the two-pass reference; the nested summary keeps its
		// own (arbitrary) checksum.
		sum.Checksum, smirror.Checksum = label, label
		file := checkpointFile{SchemaVersion: int(drop), DoneCells: int(int16(seed >> 16)), Schedule: schedule}
		fmirror := checkpointMirror{SchemaVersion: file.SchemaVersion, DoneCells: file.DoneCells, Schedule: schedule}
		if spare%7 != 0 {
			file.Summary, fmirror.Summary = &sum, &smirror
		}
		data, at, err := file.appendJSON(nil, cached)
		if err != nil {
			t.Fatal(err)
		}
		data = jsonenc.SpliceChecksum(data, at)
		if fwant := referenceChecksummed(t, &fmirror, &fmirror.Checksum); !bytes.Equal(data, fwant) {
			t.Fatalf("checkpoint sidecar = %s\nreference:           %s", data, fwant)
		}

		// The artifact Write lays down: encoded once, spliced, indented.
		sum.Checksum, smirror.Checksum = "", ""
		smirror.SchemaVersion = SchemaVersion
		if smirror.Tool == "" {
			smirror.Tool = Tool
		}
		compact := referenceChecksummed(t, &smirror, &smirror.Checksum)
		var awant bytes.Buffer
		if err := json.Indent(&awant, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		awant.WriteByte('\n')
		if indented, err := json.MarshalIndent(&smirror, "", "  "); err != nil ||
			!bytes.Equal(append(indented, '\n'), awant.Bytes()) {
			t.Fatalf("json.Indent of the compact bytes is not json.MarshalIndent (%v)", err)
		}
		var written []byte
		capture := func(data []byte) *Fault {
			written = append(written[:0], data...)
			return &Fault{Err: errCaptured}
		}
		if err := sum.WriteWithFault(filepath.Join(t.TempDir(), "a.json"), capture); !errors.Is(err, errCaptured) {
			t.Fatalf("WriteWithFault: %v", err)
		}
		if !bytes.Equal(written, awant.Bytes()) {
			t.Fatalf("artifact =\n%s\nreference:\n%s", written, awant.Bytes())
		}
		if sum.Checksum != smirror.Checksum {
			t.Fatalf("stamped checksum %q, reference %q", sum.Checksum, smirror.Checksum)
		}
	})
}

var errCaptured = errors.New("payload captured")

// rereadCollector decodes a collector's encoding with the reader
// Collector.UnmarshalJSON uses, both compact and as json.Indent lays it
// out inside an artifact, and requires each decode to re-encode to the
// same bytes.
func rereadCollector(t *testing.T, enc []byte) {
	t.Helper()
	var indented bytes.Buffer
	if err := json.Indent(&indented, enc, "      ", "  "); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{enc, indented.Bytes()} {
		var c runner.Collector
		if err := c.UnmarshalJSON(in); err != nil {
			t.Fatalf("collector does not decode: %v\n%s", err, in)
		}
		if got, err := c.AppendJSON(nil); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("collector decoded from\n%s\nre-encodes as %s, %v", in, got, err)
		}
	}
}

// referenceChecksummed is how checksummed records were written before
// the append encoders: encode with an empty checksum, hash, set the hex
// digest, encode again. checksum points at v's checksum field.
func referenceChecksummed(t *testing.T, v any, checksum *string) []byte {
	t.Helper()
	*checksum = ""
	sum := sha256.Sum256(mustJSON(t, v))
	*checksum = hex.EncodeToString(sum[:])
	return mustJSON(t, v)
}

// The committed fixtures were written by the encoding/json encoders the
// append encoders replaced (checkpoint-noschedule.ckpt is
// checkpoint.ckpt re-flushed without its schedule key); they hold
// escaped labels, -0, a subnormal, values on both sides of the 1e-6 and
// 1e21 notation switch, dropped samples, an above-cap collector and an
// empty one. Each must still load, and re-encoding it must reproduce
// the file byte for byte, or every artifact and sidecar already on disk
// would fail its checksum.
func TestFixturesReencodeByteIdentical(t *testing.T) {
	t.Run("shard-artifact", func(t *testing.T) {
		const fixture = "testdata/shard-artifact.json"
		want, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Read(fixture)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "artifact.json")
		if err := s.Write(path); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("re-encoded artifact differs from %s (%v):\n%s", fixture, err, got)
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		// checkpoint.ckpt carries the "schedule":"steal" key the steal
		// schedule stamped; checkpoint-noschedule.ckpt is the same state
		// in the layout Flush writes. Both resume, and re-flushing either
		// writes the schedule-free bytes.
		want, err := os.ReadFile("testdata/checkpoint-noschedule.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		for _, fixture := range []string{"testdata/checkpoint.ckpt", "testdata/checkpoint-noschedule.ckpt"} {
			data, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatal(err)
			}
			var f checkpointFile
			if err := json.Unmarshal(data, &f); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "shard.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			ck := NewCheckpointer(path, f.Summary.CloneEmpty(), 1)
			if done, err := ck.Resume(); err != nil || done != f.DoneCells {
				t.Fatalf("%s: Resume = %d, %v; want %d cells", fixture, done, err, f.DoneCells)
			}
			if err := ck.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: re-flushed sidecar differs from testdata/checkpoint-noschedule.ckpt (%v):\n%s", fixture, err, got)
			}
		}
	})
}

// pinMetrics is a synthetic cell result for cell g, cycling through
// mean energies that exercise the float formatting and the dropped
// tally.
func pinMetrics(g int) sim.Metrics {
	means := []float64{1.0 / 3, math.NaN(), 1e-7, 2.5e21, math.Copysign(0, -1), 42}
	m := sim.Metrics{
		Slots: int64(100 + 7*g), MaxNodeEnergy: int64(g % 5), SourceEnergy: 3,
		MeanNodeEnergy: means[g%len(means)], EveEnergy: int64(g) << 33, AllInformedSlot: int64(90 + g),
	}
	m.Invariants.HaltBeforeAllHelpers = g % 2
	return m
}

// Every sidecar a checkpointer flushes — with its per-point encoding
// cache warm, after a Resume into a fresh checkpointer, and after a
// Resume on the same checkpointer whose cache had run ahead of the
// sidecar, for every shard of a 3-way split over several points — must
// be byte-identical to the reference encoding of the same state
// (encoding/json with a two-pass checksum, the pre-append-encoder
// Flush), both as the fault point sees it and on disk. So must each
// finished shard artifact.
func TestCheckpointFlushMatchesReference(t *testing.T) {
	const k, trials = 3, 6
	dir := t.TempDir()
	tmpl := New("flush <pin>", 11, trials, []Point{
		{Label: "a&b", Workload: "mcast \xe2\x80\xa8 n=16"},
		{Label: "c", Workload: "mcast n=32"},
		{Label: "d", Workload: "mcast n=64 \x01"},
	})
	total := len(tmpl.Points) * trials
	shardTmpl := func(i int) *Summary {
		s := tmpl.CloneEmpty()
		s.ShardIndex, s.ShardCount = i, k
		return s
	}
	path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard%d.ckpt", i)) }

	var seen []byte
	open := func(i int) *Checkpointer {
		ck := NewCheckpointer(path(i), shardTmpl(i), 1)
		ck.Fault = func(data []byte) *Fault {
			seen = append(seen[:0], data...)
			return nil
		}
		return ck
	}
	cks := make([]*Checkpointer, k)
	for i := range cks {
		cks[i] = open(i)
	}
	errLost := errors.New("flush lost")
	for g := 0; g < total; g++ {
		if g == total/2 {
			// Shard 0 keeps its checkpointer but loses its next flush
			// (the rename never runs), so its cached encodings run one
			// cell ahead of the sidecar; Resume on the same checkpointer
			// must drop them. Its next cell (lost here) is folded again
			// when the loop reaches it.
			next := g + (k-g%k)%k
			ck, capture := cks[0], cks[0].Fault
			ck.Fault = func([]byte) *Fault { return &Fault{Err: errLost} }
			if err := ck.Add(next/trials, next%trials, pinMetrics(next)); !errors.Is(err, errLost) {
				t.Fatalf("lost flush: err = %v", err)
			}
			ck.Fault = capture
			if done, err := ck.Resume(); err != nil || done != ck.Done() || done != next/k {
				t.Fatalf("shard 0: Resume = %d, %v; want %d", done, err, next/k)
			}
			if err := ck.Flush(); err != nil {
				t.Fatal(err)
			}
			if want := referenceSidecar(t, ck); !bytes.Equal(seen, want) {
				t.Fatalf("flush after Resume:\n%s\nreference:\n%s", seen, want)
			}
			// The other shards resume into fresh checkpointers.
			for i := 1; i < k; i++ {
				ck := open(i)
				if done, err := ck.Resume(); err != nil || done != cks[i].Done() {
					t.Fatalf("shard %d: Resume = %d, %v; want %d", i, done, err, cks[i].Done())
				}
				cks[i] = ck
			}
		}
		s := g % k
		if err := cks[s].Add(g/trials, g%trials, pinMetrics(g)); err != nil {
			t.Fatal(err)
		}
		want := referenceSidecar(t, cks[s])
		if !bytes.Equal(seen, want) {
			t.Fatalf("cell %d: flushed payload\n%s\nreference:\n%s", g, seen, want)
		}
		if onDisk, err := os.ReadFile(path(s)); err != nil || !bytes.Equal(onDisk, want) {
			t.Fatalf("cell %d: sidecar on disk differs from the reference (%v)", g, err)
		}
	}
	for i, ck := range cks {
		artifact := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		if err := ck.Summary().Write(artifact); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(artifact)
		if err != nil {
			t.Fatal(err)
		}
		s := *ck.Summary()
		compact := referenceChecksummed(t, &s, &s.Checksum)
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("shard %d artifact differs from the reference", i)
		}
	}
}

// referenceSidecar encodes ck's state as Flush did before the append
// encoder.
func referenceSidecar(t *testing.T, ck *Checkpointer) []byte {
	t.Helper()
	f := checkpointFile{SchemaVersion: SchemaVersion, DoneCells: ck.Done(), Summary: ck.Summary()}
	return referenceChecksummed(t, &f, &f.Checksum)
}

// Read and Resume decode a payload once and probe the schema version
// only when that fails or names another version; every refusal must
// read exactly as it did when the version was probed first.
func TestRefusalsProbeVersionFirst(t *testing.T) {
	// probeFirst is the refusal order Read and Resume used to follow.
	probeFirst := func(data []byte, v any, corrupt error) error {
		var probe struct {
			SchemaVersion int `json:"schema_version"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			return fmt.Errorf("%w: %v", corrupt, err)
		}
		if err := checkVersion(probe.SchemaVersion); err != nil {
			return err
		}
		if err := json.Unmarshal(data, v); err != nil {
			return fmt.Errorf("%w: %v", corrupt, err)
		}
		return nil
	}
	dir := t.TempDir()
	for i, payload := range []string{
		`{"schema_version":2,`,
		`not json`,
		`{"schema_version":"2"}`,
		`{"schema_version":3}`,
		`{"schema_version":3,"points":"x","summary":7}`,
		`{"points":[]}`,
		`{"schema_version":1,"done_cells":-1,"summary":{"points":[{"collector":{"trials":-1}}]}}`,
		`{"schema_version":2,"points":"x","summary":7}`,
		`{"schema_version":2,"points":[{"collector":{"trials":2}}],"summary":{"points":[{"collector":{"trials":2}}]}}`,
	} {
		path := filepath.Join(dir, fmt.Sprintf("p%d.json", i))
		if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Read(path)
		want := probeFirst([]byte(payload), new(Summary), ErrCorruptArtifact)
		if want == nil || err == nil || err.Error() != path+": "+want.Error() {
			t.Errorf("Read(%s): %v\nprobing first: %v", payload, err, want)
		}
		if errors.Is(want, ErrCorruptArtifact) != errors.Is(err, ErrCorruptArtifact) {
			t.Errorf("Read(%s): corrupt sentinel differs from probing first", payload)
		}
		_, err = NewCheckpointer(path, template(2), 1).Resume()
		want = probeFirst([]byte(payload), new(checkpointFile), ErrCorruptCheckpoint)
		if want == nil {
			continue // decodes: refused later, by checksum, as before
		}
		if err == nil || !strings.HasSuffix(err.Error(), ": "+want.Error()) ||
			errors.Is(want, ErrCorruptCheckpoint) != errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("Resume(%s): %v\nprobing first: %v", payload, err, want)
		}
	}
}
