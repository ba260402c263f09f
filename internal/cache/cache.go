// Package cache is a content-addressed, on-disk store of folded
// per-cell results — the dedup-before-compute layer under driven
// campaigns. A grid cell is a pure function of (point workload, cell
// seed) on a fixed artifact schema, so the sha256 of exactly those
// identity fields addresses "this cell's result, forever": overlapping
// campaigns (re-runs, widened sweeps, added trials, CI smokes) replay
// hits instead of simulating, and a warm identical re-run simulates
// nothing at all.
//
// The store inherits the campaign artifact layer's integrity
// discipline — every entry carries a schema version and a content
// checksum over its compact JSON encoding, and writes are atomic
// (write-then-rename) — but inverts its failure posture: an artifact
// that fails its checksum is an ErrCorruptArtifact the operator must
// see, while a cache entry that is missing, truncated, bit-flipped,
// mis-keyed, or from another schema version is silently a miss. A
// cache can only ever cost a re-simulation, never a wrong answer and
// never a failed campaign; the byte-identity contracts are enforced by
// the checksum refusing any damaged entry, not by trusting the disk.
//
// Layout under the cache directory: entries live at
// <key[:2]>/<key[2:]>.json (256-way fan-out keeps directories small at
// campaign scale). Entries are immutable once written — eviction is
// the operator deleting files (or the whole directory), which reads as
// misses, and a schema bump orphans old entries by changing every key.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"multicast/internal/campaign"
	"multicast/internal/jsonenc"
	"multicast/internal/sim"
)

// SchemaVersion is the cache entry format version. It is folded into
// every key, so bumping it (or campaign.SchemaVersion, which keys also
// fold in) silently orphans all previous entries instead of risking a
// cross-version decode.
const SchemaVersion = 1

// Key derives the content address of one grid cell's result: the hex
// sha256 over a canonical rendering of everything that determines the
// cell's metrics — the cache and campaign schema versions, the point's
// label and full workload identity string (scenario.Config.Describe:
// every outcome-determining parameter), and the cell's absolute seed
// (point base seed + trial index). Campaign-level trial counts, shard
// layouts, schedules, and worker counts are deliberately absent: they
// never change what a cell computes, so an extended or re-sharded sweep
// hits every cell it shares with a previous one.
func Key(label, workload string, seed uint64) string {
	material := fmt.Sprintf("cache=%d campaign=%d label=%q workload=%q seed=%d",
		SchemaVersion, campaign.SchemaVersion, label, workload, seed)
	sum := sha256.Sum256([]byte(material))
	return hex.EncodeToString(sum[:])
}

// entry is the on-disk cache record. Checksum is the hex sha256 of the
// entry's compact JSON encoding with the Checksum field empty — the
// campaign artifact discipline. Key is stored redundantly so a file
// renamed into the wrong address reads as a miss, not as another
// cell's result.
type entry struct {
	SchemaVersion int         `json:"schema_version"`
	Checksum      string      `json:"checksum"`
	Key           string      `json:"key"`
	Metrics       sim.Metrics `json:"metrics"`
}

// appendJSON appends e's compact JSON encoding — byte-identical to what
// encoding/json writes for the entry struct, so entries written before
// this encoder existed keep their checksums and stay hits — and returns
// the offset of the checksum string's contents, for SpliceChecksum.
func (e *entry) appendJSON(dst []byte) ([]byte, int, error) {
	dst = append(dst, `{"schema_version":`...)
	dst = strconv.AppendInt(dst, int64(e.SchemaVersion), 10)
	dst = append(dst, `,"checksum":`...)
	at := len(dst) + 1
	dst = jsonenc.AppendString(dst, e.Checksum)
	dst = append(dst, `,"key":`...)
	dst = jsonenc.AppendString(dst, e.Key)
	dst = append(dst, `,"metrics":`...)
	dst, err := appendMetrics(dst, &e.Metrics)
	if err != nil {
		return nil, 0, err
	}
	return append(dst, '}'), at, nil
}

// appendMetrics appends m under its Go field names, as encoding/json
// encodes the untagged sim.Metrics struct. A non-finite MeanNodeEnergy
// is refused, as encoding/json refuses it.
func appendMetrics(dst []byte, m *sim.Metrics) ([]byte, error) {
	dst = append(dst, `{"Slots":`...)
	dst = strconv.AppendInt(dst, m.Slots, 10)
	dst = append(dst, `,"MaxNodeEnergy":`...)
	dst = strconv.AppendInt(dst, m.MaxNodeEnergy, 10)
	dst = append(dst, `,"SourceEnergy":`...)
	dst = strconv.AppendInt(dst, m.SourceEnergy, 10)
	dst = append(dst, `,"MeanNodeEnergy":`...)
	dst, err := jsonenc.AppendFloat(dst, m.MeanNodeEnergy)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `,"EveEnergy":`...)
	dst = strconv.AppendInt(dst, m.EveEnergy, 10)
	dst = append(dst, `,"AllInformedSlot":`...)
	dst = strconv.AppendInt(dst, m.AllInformedSlot, 10)
	dst = append(dst, `,"FirstHelperSlot":`...)
	dst = strconv.AppendInt(dst, m.FirstHelperSlot, 10)
	dst = append(dst, `,"FirstHaltSlot":`...)
	dst = strconv.AppendInt(dst, m.FirstHaltSlot, 10)
	dst = append(dst, `,"Invariants":`...)
	dst = m.Invariants.AppendJSON(dst)
	dst = append(dst, `,"HelperJCounts":[`...)
	for i, n := range m.HelperJCounts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, "]}"...), nil
}

// checksum returns the entry's content digest: compact JSON with the
// Checksum field empty. sim.Metrics is a flat struct of integers and
// one float64, both of which Go JSON round-trips exactly, so the digest
// is stable under decode→encode.
func (e *entry) checksum() (string, error) {
	c := *e
	c.Checksum = ""
	data, _, err := c.appendJSON(make([]byte, 0, entrySize))
	if err != nil {
		return "", err
	}
	return jsonenc.Digest(data), nil
}

// entrySize is the encoding buffer Put and Load start from: a whole
// entry, checksum and newline included, fits in it even with every
// integer at its widest.
const entrySize = 1024

// Store is one on-disk cell result cache rooted at a directory.
// Load and Put are safe for concurrent use from any number of
// goroutines or processes: entries are immutable, written atomically,
// and verified on read, so the worst concurrent outcome is two workers
// writing the same bytes to the same address.
type Store struct {
	dir string
}

// Open roots a store at dir, creating the directory if needed. This is
// the only call that surfaces filesystem errors eagerly — an unusable
// cache directory is an operator mistake worth naming, while individual
// damaged entries later are just misses.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// EntryPath returns the on-disk path of the entry addressed by key —
// exported so tests and chaos drills can truncate or bit-flip the exact
// file a campaign will consult.
func (s *Store) EntryPath(key string) string {
	return filepath.Join(s.dir, key[:2], key[2:]+".json")
}

// Load returns the metrics cached under key. Every failure mode —
// missing file, unreadable file, truncated or otherwise undecodable
// JSON, wrong schema version, mis-keyed entry, checksum mismatch — is
// reported as a miss (ok == false) and never an error: a damaged cache
// may cost a re-simulation but can never fail a campaign or corrupt a
// result.
func (s *Store) Load(key string) (m sim.Metrics, ok bool) {
	data, err := os.ReadFile(s.EntryPath(key))
	if err != nil {
		return sim.Metrics{}, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return sim.Metrics{}, false
	}
	if e.SchemaVersion != SchemaVersion || e.Key != key {
		return sim.Metrics{}, false
	}
	want, err := e.checksum()
	if err != nil || e.Checksum != want {
		return sim.Metrics{}, false
	}
	return e.Metrics, true
}

// Put records m under key, atomically (write to a same-directory temp
// file, then rename), so a crash mid-write leaves either the previous
// entry or none — never a torn one for Load to trip over. Errors are
// returned for observability, but callers treat them as non-fatal: a
// cache that cannot be written is just a cache that will miss.
func (s *Store) Put(key string, m sim.Metrics) error {
	e := entry{SchemaVersion: SchemaVersion, Key: key, Metrics: m}
	data, at, err := e.appendJSON(make([]byte, 0, entrySize))
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	data = jsonenc.SpliceChecksum(data, at)
	data = append(data, '\n')
	path := s.EntryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}
