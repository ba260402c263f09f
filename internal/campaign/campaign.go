// Package campaign is the artifact layer of the trial stack: the single
// source of truth for the mergeable summary files that sharded
// statistical campaigns write, ship across machines, and merge back
// into exactly the summary one machine would have produced.
//
// One versioned schema covers both campaign shapes. A campaign is a
// list of workload points — a scenario sweep names its scenario and
// carries one point per sweep point; a single-workload campaign has an
// empty scenario name and exactly one point. Every point pairs its
// workload identity string (scenario.Config.Describe) with a mergeable
// runner.Collector, so the merge rules, coverage accounting, and
// campaign-identity checks are one code path for both shapes.
//
// Files carry a schema_version field and readers refuse any version
// they do not know (including pre-versioned legacy files, which read as
// version 0): silently decoding a future tool's artifact would drop its
// unknown fields and corrupt a merge. Since version 2 every file also
// carries a content checksum, so an artifact damaged in flight — torn,
// truncated, or bit-flipped anywhere that matters — reads as
// ErrCorruptArtifact instead of being folded into a merge.
//
// The package also owns per-shard checkpointing (see Checkpointer): a
// sidecar progress file updated at grid-cell granularity, so an
// interrupted shard worker resumes at its next undone cell and still
// produces a bit-identical artifact — the mechanism under
// internal/driver's crash recovery and cmd/mcast -resume.
//
// Both write paths expose fault points (Fault, FaultPoint) so the
// chaos harness (internal/chaos) can deterministically tear a
// checkpoint flush or corrupt an artifact write; production writes pass
// a nil fault point and are untouched.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"multicast/internal/jsonenc"
	"multicast/internal/runner"
)

// SchemaVersion is the artifact schema this package reads and writes.
// Bump it on any incompatible change to the file layout; readers refuse
// other versions by name. Version 2 added the mandatory content
// checksum.
const SchemaVersion = 2

// ErrCorruptArtifact marks a summary artifact whose bytes cannot be
// trusted: truncated mid-JSON, failing its content checksum, or
// otherwise undecodable. Wrapped into Read errors; test with errors.Is.
// Distinct from a schema-version refusal (an intact file from another
// tool) and from an identity mismatch (an intact file from another
// campaign).
var ErrCorruptArtifact = errors.New("corrupt campaign artifact")

// ErrCorruptCheckpoint is ErrCorruptArtifact's sibling for checkpoint
// sidecars: a torn, truncated, or internally inconsistent progress
// file. Resuming over one would corrupt the shard artifact silently, so
// Checkpointer.Resume refuses it; internal/driver treats the refusal as
// terminal (deterministic — retrying replays it).
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint sidecar")

// Tool is the tool name stamped into artifacts (informational; not part
// of the campaign identity).
const Tool = "mcast"

// Point is one workload point's slice of a campaign summary.
type Point struct {
	// Label distinguishes the point within the campaign (e.g. "C=8"; a
	// single-workload campaign uses its algorithm name).
	Label string `json:"label"`
	// Workload is the point's full identity string
	// (scenario.Config.Describe): every parameter that determines trial
	// outcomes. Merging refuses points whose identities differ.
	Workload string `json:"workload"`
	// Collector holds the point's mergeable summary state.
	Collector *runner.Collector `json:"collector"`
}

// Summary is the versioned mergeable artifact written by one shard of a
// campaign (or by an unsharded run, shard 0 of 1). The campaign
// identity — everything that determines results, nothing that must not
// (shard layout, workers, engine) — is Scenario, Trials, Seed, and the
// points' labels and workload strings.
type Summary struct {
	// SchemaVersion is the artifact schema; Write stamps SchemaVersion
	// and Read refuses files with any other value.
	SchemaVersion int `json:"schema_version"`
	// Tool names the writing tool (informational).
	Tool string `json:"tool"`
	// Checksum is the hex sha256 of the summary's compact JSON encoding
	// with this field empty. Write stamps it; Read hashes the file's own
	// bytes, whitespace stripped and the digits cut out, and refuses a
	// mismatch as ErrCorruptArtifact, so silent damage (a flipped bit, a
	// surviving truncation, a re-encoding) cannot reach a merge.
	Checksum string `json:"checksum"`
	// Scenario is the registry scenario name; empty for single-workload
	// campaigns.
	Scenario string `json:"scenario,omitempty"`
	// Seed is the campaign's base seed (cell (p, t) runs with the
	// point's seed + t; see internal/runner).
	Seed uint64 `json:"seed"`
	// Trials is the campaign's trial count per point.
	Trials int `json:"trials"`
	// ShardIndex/ShardCount name this artifact's slice of the flattened
	// (point × trial) grid: cells g ≡ ShardIndex (mod ShardCount).
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	// Points carries every point's collector — points this shard ran no
	// cells of included, with zero trials — so merging is positional.
	Points []Point `json:"points"`
}

// New returns an unsharded summary for the given campaign: a
// single-workload campaign when scenario is "" (then points must have
// length 1), a sweep otherwise. Points keep their collectors; a nil
// collector is replaced with a fresh empty one.
func New(scenario string, seed uint64, trials int, points []Point) *Summary {
	s := &Summary{
		SchemaVersion: SchemaVersion,
		Tool:          Tool,
		Scenario:      scenario,
		Seed:          seed,
		Trials:        trials,
		ShardIndex:    0,
		ShardCount:    1,
		Points:        append([]Point(nil), points...),
	}
	for i := range s.Points {
		if s.Points[i].Collector == nil {
			s.Points[i].Collector = runner.NewCollector()
		}
	}
	return s
}

// CloneEmpty returns a summary with the same campaign identity and
// shard layout as s but fresh, empty collectors — the starting state of
// a shard worker.
func (s *Summary) CloneEmpty() *Summary {
	out := *s
	out.Checksum = "" // content digest of a different payload
	out.Points = make([]Point, len(s.Points))
	for i, p := range s.Points {
		out.Points[i] = Point{Label: p.Label, Workload: p.Workload, Collector: runner.NewCollector()}
	}
	return &out
}

// Single reports whether s is a single-workload campaign (no scenario,
// one point).
func (s *Summary) Single() bool { return s.Scenario == "" && len(s.Points) == 1 }

// Identity renders the campaign identity two artifacts must share to
// merge: scenario, trials, seed, and every point's label and workload
// string — everything that determines results. Shard layout, workers,
// and engine are deliberately excluded: they must not change results,
// so they may differ per machine.
func (s *Summary) Identity() string {
	var b strings.Builder
	if s.Scenario != "" {
		fmt.Fprintf(&b, "scenario=%s ", s.Scenario)
	}
	fmt.Fprintf(&b, "trials=%d seed=%d", s.Trials, s.Seed)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "\n  %s: %s", p.Label, p.Workload)
	}
	return b.String()
}

// Cells returns the number of grid cells folded into s across its
// points.
func (s *Summary) Cells() int64 {
	var n int64
	for _, p := range s.Points {
		n += p.Collector.Trials()
	}
	return n
}

// checkVersion refuses any schema version this package does not know,
// naming both versions. Pre-versioned legacy files decode as version 0.
func checkVersion(v int) error {
	if v != SchemaVersion {
		return fmt.Errorf("unsupported summary schema version %d (this tool reads version %d; regenerate the artifact with a matching tool)",
			v, SchemaVersion)
	}
	return nil
}

// Validate checks the structural invariants of a decoded summary.
func (s *Summary) Validate() error {
	if err := checkVersion(s.SchemaVersion); err != nil {
		return err
	}
	if s.Trials <= 0 {
		return fmt.Errorf("trials = %d must be positive", s.Trials)
	}
	if s.ShardCount < 1 || s.ShardIndex < 0 || s.ShardIndex >= s.ShardCount {
		return fmt.Errorf("invalid shard %d/%d", s.ShardIndex, s.ShardCount)
	}
	if len(s.Points) == 0 {
		return fmt.Errorf("no workload points")
	}
	if s.Scenario == "" && len(s.Points) != 1 {
		return fmt.Errorf("single-workload summary has %d points, want 1", len(s.Points))
	}
	for i, p := range s.Points {
		if p.Workload == "" {
			return fmt.Errorf("point %d (%s) has no workload identity", i, p.Label)
		}
		if p.Collector == nil {
			return fmt.Errorf("point %d (%s) has no collector payload", i, p.Label)
		}
	}
	return nil
}

// appendJSON appends s's compact JSON encoding — byte-identical to what
// encoding/json writes for the Summary struct — and returns the offset
// at which the checksum string's contents begin, for SpliceChecksum.
// cached, when non-nil, holds one encoded collector per point across
// calls (see Checkpointer): a non-empty entry is copied as is, and an
// empty one is filled with the collector's fresh encoding. Encoding
// into dst and copying out keeps each entry at its exact size.
func (s *Summary) appendJSON(dst []byte, cached [][]byte) ([]byte, int, error) {
	dst = append(dst, `{"schema_version":`...)
	dst = strconv.AppendInt(dst, int64(s.SchemaVersion), 10)
	dst = append(dst, `,"tool":`...)
	dst = jsonenc.AppendString(dst, s.Tool)
	dst = append(dst, `,"checksum":`...)
	at := len(dst) + 1
	dst = jsonenc.AppendString(dst, s.Checksum)
	if s.Scenario != "" {
		dst = append(dst, `,"scenario":`...)
		dst = jsonenc.AppendString(dst, s.Scenario)
	}
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, s.Seed, 10)
	dst = append(dst, `,"trials":`...)
	dst = strconv.AppendInt(dst, int64(s.Trials), 10)
	dst = append(dst, `,"shard_index":`...)
	dst = strconv.AppendInt(dst, int64(s.ShardIndex), 10)
	dst = append(dst, `,"shard_count":`...)
	dst = strconv.AppendInt(dst, int64(s.ShardCount), 10)
	dst = append(dst, `,"points":`...)
	if s.Points == nil {
		return append(dst, "null}"...), at, nil
	}
	dst = append(dst, '[')
	for i, p := range s.Points {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"label":`...)
		dst = jsonenc.AppendString(dst, p.Label)
		dst = append(dst, `,"workload":`...)
		dst = jsonenc.AppendString(dst, p.Workload)
		dst = append(dst, `,"collector":`...)
		if cached != nil && len(cached[i]) > 0 {
			dst = append(dst, cached[i]...)
		} else {
			start := len(dst)
			var err error
			if dst, err = p.Collector.AppendJSON(dst); err != nil {
				return nil, 0, err
			}
			if cached != nil {
				cached[i] = append(cached[i], dst[start:]...)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), at, nil
}

// readJSON decodes s as appendJSON writes it, from a compact reader:
// the fields in their order, each value in the encoder's spelling
// (ExactString, and the collectors' own readers), so whatever it
// accepts re-encodes to the bytes it read.
func (s *Summary) readJSON(r *jsonenc.Reader) error {
	r.Expect(`{"schema_version":`)
	s.SchemaVersion = int(r.Int(strconv.IntSize))
	r.Expect(`,"tool":`)
	s.Tool = r.ExactString()
	r.Expect(`,"checksum":`)
	s.Checksum = r.ExactString()
	if r.Accept(`,"scenario":`) {
		if s.Scenario = r.ExactString(); s.Scenario == "" && r.Err() == nil {
			return errors.New("empty scenario field (omitted when empty)")
		}
	}
	r.Expect(`,"seed":`)
	s.Seed = r.Uint()
	r.Expect(`,"trials":`)
	s.Trials = int(r.Int(strconv.IntSize))
	r.Expect(`,"shard_index":`)
	s.ShardIndex = int(r.Int(strconv.IntSize))
	r.Expect(`,"shard_count":`)
	s.ShardCount = int(r.Int(strconv.IntSize))
	r.Expect(`,"points":`)
	if !r.Accept("null") {
		r.Expect("[")
		s.Points = []Point{}
		for r.Err() == nil && !r.Accept("]") {
			if len(s.Points) > 0 {
				r.Expect(",")
			}
			var p Point
			r.Expect(`{"label":`)
			p.Label = r.ExactString()
			r.Expect(`,"workload":`)
			p.Workload = r.ExactString()
			r.Expect(`,"collector":`)
			if !r.Accept("null") {
				p.Collector = new(runner.Collector)
				if err := p.Collector.ReadJSON(r); err != nil {
					return err
				}
			}
			r.Expect("}")
			s.Points = append(s.Points, p)
		}
	}
	r.Expect("}")
	return r.Err()
}

// readVerified is the read path Read and Checkpointer.Resume share,
// the way cache.Store.Load reads a record: it strips data's
// insignificant whitespace, checks the content checksum on the compact
// bytes (see verify), and only then decodes them with decode, which
// reads the whole record. A record that is not the canonical encoding
// up to whitespace fails the checksum or the decode. Every failure, and
// a foreign schema version, is refused as refusal explains it, from
// data as read.
func readVerified(data []byte, corrupt error, decode func(*jsonenc.Reader) error) error {
	compact, err := jsonenc.AppendCompact(nil, data)
	if err == nil {
		err = verify(compact)
	}
	if err == nil {
		r := jsonenc.NewReader(compact)
		if err = decode(&r); err == nil {
			err = r.End()
		}
	}
	if err != nil {
		return refusal(data, err, corrupt)
	}
	return nil
}

// verify checks the content checksum of compact, the compact bytes of
// an artifact or sidecar: its leading fields are the schema version,
// which must be this package's, an artifact's tool name, and the
// checksum, whose digits must be the digest of compact with them cut
// out.
func verify(compact []byte) error {
	r := jsonenc.NewReader(compact)
	r.Expect(`{"schema_version":`)
	if v := int(r.Int(strconv.IntSize)); r.Err() == nil && v != SchemaVersion {
		return checkVersion(v)
	}
	if r.Accept(`,"tool":`) {
		r.ExactString()
	}
	r.Expect(`,"checksum":"`)
	if err := r.Err(); err != nil {
		return err
	}
	return jsonenc.VerifyChecksum(compact, len(compact)-r.Len())
}

// refusal explains why a payload that did not decode (decodeErr) or
// decoded with a foreign schema version is refused. It probes the
// schema version on its own, so the messages are those of probing
// first: bytes that do not even yield a version are corrupt (wrapping
// the corrupt sentinel), an intact file of another version is refused
// by name, and anything else is corrupt with the decode error.
func refusal(data []byte, decodeErr, corrupt error) error {
	var probe struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("%w: %v", corrupt, err)
	}
	if err := checkVersion(probe.SchemaVersion); err != nil {
		return err
	}
	return fmt.Errorf("%w: %v", corrupt, decodeErr)
}

// Read loads and validates one summary artifact: it verifies the
// checksum on the file's own bytes, whitespace stripped, then decodes
// them by hand (see readVerified). Only a failure or a foreign schema
// version costs a second pass (see refusal), so a future tool's intact
// file fails with the version message. Undecodable bytes (truncated
// mid-JSON), checksum mismatches and non-canonical encodings fail with
// a wrapped ErrCorruptArtifact.
func Read(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := readVerified(data, ErrCorruptArtifact, s.readJSON); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Write stamps the schema version, tool name, and content checksum and
// writes s as indented JSON, atomically (write-then-rename), so a crash
// mid-write never leaves a torn artifact for -resume or -merge to trip
// over.
func (s *Summary) Write(path string) error { return s.WriteWithFault(path, nil) }

// WriteWithFault is Write with a fault point: fp (if non-nil) sees the
// exact bytes about to be written and may inject a storage failure in
// their place. The chaos harness's artifact-corruption seam; production
// callers use Write.
func (s *Summary) WriteWithFault(path string, fp FaultPoint) error {
	_, err := s.write(path, fp, nil, nil)
	return err
}

// write is WriteWithFault encoding the compact bytes into buf's array,
// with appendJSON's per-point collector cache, and returns the array
// for reuse. The compact bytes are encoded once, with the checksum
// spliced in, and indented into one buffer of their exact size.
func (s *Summary) write(path string, fp FaultPoint, cached [][]byte, buf []byte) ([]byte, error) {
	s.SchemaVersion = SchemaVersion
	if s.Tool == "" {
		s.Tool = Tool
	}
	c := *s
	c.Checksum = ""
	compact, at, err := c.appendJSON(buf[:0], cached)
	if err != nil {
		return buf, err
	}
	compact = jsonenc.SpliceChecksum(compact, at)
	s.Checksum = string(compact[at : at+jsonenc.DigestLen])
	data := append(jsonenc.AppendIndent(nil, compact), '\n')
	if fp != nil {
		if f := fp(data); f != nil {
			return compact, f.apply(path)
		}
	}
	return compact, writeAtomic(path, data)
}

// Fault is one injected storage failure at a campaign fault point,
// describing what lands on disk instead of the real payload and what
// the writer is told about it.
type Fault struct {
	// Data is written in place of the real payload (typically a
	// truncated or bit-flipped copy of it).
	Data []byte
	// Err is returned to the writer after the faulty write — the
	// simulated crash. A nil Err is silent corruption: the writer
	// believes the write succeeded.
	Err error
	// Torn writes Data directly over the destination file — an in-place
	// tear, as a failing disk would leave it. Without Torn, Data lands
	// only in the write-then-rename temp file and the rename never runs
	// (a crash between write and rename), leaving any previous file
	// intact.
	Torn bool
}

// FaultPoint inspects the payload about to be written and returns the
// fault to inject, or nil to let the write proceed untouched. The
// payload is valid only during the call, because a Checkpointer reuses
// its buffer for the next flush. A returned Fault's Data may slice it
// (the writer lands the fault before it encodes again), but nothing may
// keep it.
type FaultPoint func(data []byte) *Fault

// apply lands the fault on disk and returns its injected error.
func (f *Fault) apply(path string) error {
	dst := path + ".tmp"
	if f.Torn {
		dst = path
	}
	if err := os.WriteFile(dst, f.Data, 0o644); err != nil {
		return err
	}
	return f.Err
}

// writeAtomic writes data to a same-directory temp file and renames it
// into place.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Input names one summary for Merge — Name (usually the file path) only
// feeds error messages.
type Input struct {
	Name string
	Sum  *Summary
}

// Merge combines the shard artifacts of one campaign into its full
// summary, enforcing the exact-coverage rules: every input validates,
// all inputs share one campaign identity and one k-way shard split, all
// k distinct shards are present (no duplicates, no gaps), and the
// merged cells cover every point's full trial count. A merge that would
// silently produce a thinner or mixed sample is an error. The result is
// unsharded (shard 0 of 1) and bit-identical to the unsharded run's
// summary while per-point trial counts stay within the stats sample
// cap.
func Merge(in []Input) (*Summary, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("merge needs at least one summary")
	}
	var first *Summary
	var merged []*runner.Collector
	var cover shardCoverage
	for i, input := range in {
		name, s := input.Name, input.Sum
		if name == "" {
			name = fmt.Sprintf("summary %d", i)
		}
		if s == nil {
			return nil, fmt.Errorf("%s: nil summary", name)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := cover.add(name, s.Identity(), s.ShardIndex, s.ShardCount); err != nil {
			return nil, err
		}
		if i == 0 {
			first = s
			merged = make([]*runner.Collector, len(s.Points))
			for p := range merged {
				merged[p] = runner.NewCollector()
			}
		}
		for p := range s.Points {
			merged[p].Merge(s.Points[p].Collector)
		}
	}
	if err := cover.complete(); err != nil {
		return nil, err
	}
	for p := range merged {
		if merged[p].Trials() != int64(first.Trials) {
			return nil, fmt.Errorf("point %s: merged shards cover %d of %d trials — corrupt shard files",
				first.Points[p].Label, merged[p].Trials(), first.Trials)
		}
	}
	out := New(first.Scenario, first.Seed, first.Trials, nil)
	out.Tool = first.Tool
	out.Points = make([]Point, len(first.Points))
	for p := range first.Points {
		out.Points[p] = Point{
			Label:     first.Points[p].Label,
			Workload:  first.Points[p].Workload,
			Collector: merged[p],
		}
	}
	return out, nil
}

// MergeFiles reads the given artifact files and merges them; error
// messages name the offending paths.
func MergeFiles(paths []string) (*Summary, error) {
	in := make([]Input, 0, len(paths))
	for _, path := range paths {
		s, err := Read(path)
		if err != nil {
			return nil, err
		}
		in = append(in, Input{Name: path, Sum: s})
	}
	return Merge(in)
}

// shardCoverage enforces the exact-coverage merge rules: one campaign
// identity, one k-way split, all k distinct shards present. Trial
// counts alone can balance out even when a shard is merged twice and
// another dropped — hence the index bookkeeping.
type shardCoverage struct {
	firstName, firstIdentity string
	count                    int
	seen                     map[int]string
}

// add validates one shard's identity and layout against those merged so
// far.
func (c *shardCoverage) add(name, identity string, index, count int) error {
	if count < 1 || index < 0 || index >= count {
		return fmt.Errorf("%s: invalid shard %d/%d", name, index, count)
	}
	if c.seen == nil {
		c.seen = make(map[int]string)
		c.firstName, c.firstIdentity, c.count = name, identity, count
	} else {
		if identity != c.firstIdentity {
			return fmt.Errorf("%s is from a different campaign:\n  %s\nvs %s:\n  %s",
				name, indent(identity), c.firstName, indent(c.firstIdentity))
		}
		if count != c.count {
			return fmt.Errorf("%s is shard %d/%d but %s is of a %d-way split",
				name, index, count, c.firstName, c.count)
		}
	}
	if prev, dup := c.seen[index]; dup {
		return fmt.Errorf("%s duplicates shard %d/%d already merged from %s",
			name, index, count, prev)
	}
	c.seen[index] = name
	return nil
}

// complete checks that every shard of the split was merged.
func (c *shardCoverage) complete() error {
	if len(c.seen) != c.count {
		return fmt.Errorf("got %d of %d shards — missing shard files", len(c.seen), c.count)
	}
	return nil
}

func indent(s string) string { return strings.ReplaceAll(s, "\n", "\n  ") }
