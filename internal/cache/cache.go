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
// checksum over its compact JSON encoding — but inverts its failure
// posture: an artifact that fails its checksum is an
// ErrCorruptArtifact the operator must see, while a cache entry that
// is missing, truncated, bit-flipped, mis-keyed, or from another schema
// version is silently a miss. A cache can only ever cost a
// re-simulation, never a wrong answer and never a failed campaign; the
// byte-identity contracts are enforced by the checksum refusing any
// damaged entry, not by trusting the disk.
//
// Layout under the cache directory: append-only segment files, *.seg.
// Each Store appends every Put as one newline-terminated record — the
// entry's compact JSON — to a segment it creates on its first write,
// under a name no other Store or process uses, so no two writers ever
// share a file. Open indexes every segment in the directory by key,
// from complete lines only: a torn tail left by a crash mid-append, or
// any other line without a readable key, is skipped, and the last
// record for a key wins. Load verifies a record on its raw bytes — the
// sha256 of the record with its checksum digits cut out must equal the
// digits — and only then decodes it, accepting exactly the bytes Put
// writes. It reads through a handle the Store opens on a segment the
// first time it reads from it and keeps until Close. Eviction is the
// operator deleting segments (or the whole directory), which reads as
// misses to every Store that had not yet read from them, and a schema
// bump orphans old records by changing every key. Entries of the former
// one-file-per-cell layout (<key[:2]>/<key[2:]>.json) are ignored.
package cache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

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
// layouts, and worker counts are deliberately absent: they never
// change what a cell computes, so an extended or re-sharded sweep
// hits every cell it shares with a previous one.
func Key(label, workload string, seed uint64) string {
	var buf [keyBuf]byte
	return keyOf(strconv.AppendUint(appendPoint(buf[:0], label, workload), seed, 10))
}

// PointKey returns the key function of one point's cells:
// PointKey(label, workload)(seed) == Key(label, workload, seed). The
// label and workload are quoted once, when PointKey is called, not once
// per cell, and the function is safe for concurrent use, so workers can
// derive their cells' keys as they claim them.
func PointKey(label, workload string) func(seed uint64) string {
	point := appendPoint(nil, label, workload)
	return func(seed uint64) string {
		var buf [keyBuf]byte
		return keyOf(strconv.AppendUint(append(buf[:0], point...), seed, 10))
	}
}

// keyBuf holds the key material of a point with a label and workload
// of typical length without a heap allocation.
const keyBuf = 256

// appendPoint appends the key material up to the seed:
//
//	cache=<SchemaVersion> campaign=<campaign.SchemaVersion> label=<%q> workload=<%q> seed=
//
// with both strings quoted as strconv.Quote (fmt's %q) quotes them.
func appendPoint(dst []byte, label, workload string) []byte {
	dst = append(dst, "cache="...)
	dst = strconv.AppendInt(dst, SchemaVersion, 10)
	dst = append(dst, " campaign="...)
	dst = strconv.AppendInt(dst, campaign.SchemaVersion, 10)
	dst = append(dst, " label="...)
	dst = strconv.AppendQuote(dst, label)
	dst = append(dst, " workload="...)
	dst = strconv.AppendQuote(dst, workload)
	return append(dst, " seed="...)
}

// keyOf returns the key of the given material: its hex sha256.
func keyOf(material []byte) string {
	sum := sha256.Sum256(material)
	var digits [jsonenc.DigestLen]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// entry is the on-disk cache record. Checksum is the hex sha256 of the
// entry's compact JSON encoding with the Checksum field empty — the
// campaign artifact discipline. Key is stored in full because the
// index addresses records by a key prefix: a record found under another
// key's address reads as a miss, not as another cell's result.
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

// recordHead is how every record of this schema version begins, up to
// its checksum's digits.
var recordHead = `{"schema_version":` + strconv.Itoa(SchemaVersion) + `,"checksum":"`

// readRecord verifies and decodes rec, one record with its newline, as
// the record of key: first the checksum, over rec's own bytes with the
// digits cut out, then a straight-line read of exactly the bytes Put
// writes — the schema-version prefix, the key, the metric fields in
// order, integers as strconv writes them (HelperJCounts within int32)
// and the float as jsonenc.AppendFloat writes it. Anything else is a
// miss, so whatever it accepts re-encodes byte for byte. It cuts the
// digits out of rec in place.
func readRecord(rec []byte, key string) (m sim.Metrics, ok bool) {
	at, n := len(recordHead), len(rec)-1
	if n < at+jsonenc.DigestLen || rec[n] != '\n' || string(rec[:at]) != recordHead {
		return sim.Metrics{}, false
	}
	var stored, digest [jsonenc.DigestLen]byte
	copy(stored[:], rec[at:])
	rec = append(rec[:at], rec[at+jsonenc.DigestLen:n]...)
	sum := sha256.Sum256(rec)
	hex.Encode(digest[:], sum[:])
	if digest != stored {
		return sim.Metrics{}, false
	}
	r := jsonenc.NewReader(rec[at:])
	r.Expect(`","key":`)
	r.ExpectString(key)
	r.Expect(`,"metrics":{"Slots":`)
	m.Slots = r.Int(64)
	r.Expect(`,"MaxNodeEnergy":`)
	m.MaxNodeEnergy = r.Int(64)
	r.Expect(`,"SourceEnergy":`)
	m.SourceEnergy = r.Int(64)
	r.Expect(`,"MeanNodeEnergy":`)
	m.MeanNodeEnergy = r.ExactFloat()
	r.Expect(`,"EveEnergy":`)
	m.EveEnergy = r.Int(64)
	r.Expect(`,"AllInformedSlot":`)
	m.AllInformedSlot = r.Int(64)
	r.Expect(`,"FirstHelperSlot":`)
	m.FirstHelperSlot = r.Int(64)
	r.Expect(`,"FirstHaltSlot":`)
	m.FirstHaltSlot = r.Int(64)
	r.Expect(`,"Invariants":`)
	m.Invariants.ReadJSON(&r)
	r.Expect(`,"HelperJCounts":[`)
	for i := range m.HelperJCounts {
		if i > 0 {
			r.Expect(",")
		}
		m.HelperJCounts[i] = int32(r.Int(32))
	}
	r.Expect("]}}")
	if r.End() != nil {
		return sim.Metrics{}, false
	}
	return m, true
}

// entrySize is the encoding buffer Put and Load start from: a whole
// entry, checksum and newline included, fits in it even with every
// integer at its widest, so a longer line is not a record.
const entrySize = 1024

// segExt names the segment files Open indexes; anything else in the
// cache directory is ignored.
const segExt = ".seg"

// minRecord is the length of the shortest record Load accepts, newline
// included: every number in it a single digit.
var minRecord = func() int64 {
	zeros := strings.Repeat("0", jsonenc.DigestLen)
	e := entry{SchemaVersion: SchemaVersion, Checksum: zeros, Key: zeros}
	rec, _, _ := e.appendJSON(nil)
	return int64(len(rec) + 1)
}()

// maxIndexHint caps the records Open reserves index room for from the
// segments' sizes — about 4 MiB of index — so a huge junk file named
// *.seg cannot make Open reserve memory in proportion to its size.
const maxIndexHint = 1 << 17

// scanBuf is Open's read buffer. A line longer than it cannot be a
// record (an entry fits in entrySize), so the scan skips it whole.
const scanBuf = 64 << 10

// keyField precedes the key in a record; keyPrefix reads the digits
// after it.
var keyField = []byte(`,"key":"`)

// hexVal maps each lower-case hex digit to its value and every other
// byte to 0xff, whose high bits no digit's value has.
var hexVal = func() (t [256]byte) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = byte(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = byte(c - 'a' + 10)
		default:
			t[c] = 0xff
		}
	}
	return t
}()

// keyPrefix decodes the first 16 hex digits of a key — its first 8
// bytes, the index address. Key writes lower-case hex, so anything else
// is malformed.
func keyPrefix[T string | []byte](key T) (uint64, bool) {
	if len(key) < 16 {
		return 0, false
	}
	var p uint64
	var seen byte // every value ORed: above 0xf if a byte was not a digit
	for i := 0; i < 16; i++ {
		v := hexVal[key[i]]
		seen |= v
		p = p<<4 | uint64(v)
	}
	if seen > 0xf {
		return 0, false
	}
	return p, true
}

// record locates one record: segment (an index into Store.segs), byte
// offset, and length including the newline. The int32 fields keep an
// index entry at 16 bytes; the index is the cache's whole memory cost.
type record struct {
	seg int32
	n   int32
	off int64
}

// segFile is one segment file and the read handle Load opens on it the
// first time it reads from it.
type segFile struct {
	path string
	f    *os.File // nil until the first Load from the segment
}

// Store is one on-disk cell result cache rooted at a directory: an
// in-memory index over the segments found there at Open, plus the one
// segment this Store appends its own Puts to. Load and Put are safe
// for concurrent use from any number of goroutines, and any number of
// Stores, in one process or many, may share a directory. A record
// another Store writes after this one's Open is a miss here until the
// directory is opened again. Load keeps a read handle on each segment
// it has read from until Close; a Store never closed releases them when
// it is garbage-collected.
type Store struct {
	dir string

	// mu orders Put's appends, every index access and the handles.
	mu     sync.Mutex
	segs   []segFile         // scanned at Open, then created by Put
	index  map[uint64]record // key prefix (first 8 bytes) → its last record
	own    int               // this Store's segment in segs; -1 until its first Put
	end    int64             // size of the own segment: the next record's offset
	closed bool              // Close ran: every Load misses
}

// Open roots a store at dir, creating the directory if needed, and
// indexes every segment in it. This is the only call that surfaces
// filesystem errors eagerly — an unusable cache directory is an
// operator mistake worth naming, while an unreadable segment or a
// damaged record is skipped here and read as a miss later.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Store{dir: dir, own: -1}
	var size int64 // the segments' total bytes
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != segExt {
			continue
		}
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
		s.segs = append(s.segs, segFile{path: filepath.Join(dir, e.Name())})
	}
	// Reserve the index for as many records as the segments could hold,
	// so the scan does not grow it step by step.
	s.index = make(map[uint64]record, min(size/minRecord, maxIndexHint))
	if len(s.segs) > 0 {
		r := bufio.NewReaderSize(nil, scanBuf)
		for seg := range s.segs {
			s.scan(int32(seg), r)
		}
	}
	return s, nil
}

// scan indexes the complete lines of segment seg that carry a readable
// key prefix, reading through r. Nothing is decoded or verified here;
// Load does that for the one record it reads.
func (s *Store) scan(seg int32, r *bufio.Reader) {
	f, err := os.Open(s.segs[seg].path)
	if err != nil {
		return
	}
	defer f.Close()
	r.Reset(f)
	var off int64
	long := false // inside a line longer than scanBuf
	for {
		line, err := r.ReadSlice('\n')
		switch {
		case err == bufio.ErrBufferFull:
			long = true
		case err != nil:
			return // EOF or a read error; a torn tail is never indexed
		case long:
			long = false
		default:
			if i := bytes.Index(line, keyField); i >= 0 {
				if p, ok := keyPrefix(line[i+len(keyField):]); ok {
					s.index[p] = record{seg: seg, n: int32(len(line)), off: off}
				}
			}
		}
		off += int64(len(line))
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Locate returns where the record Load consults for key lives: its
// segment's path, byte offset and length (newline included); ok is
// false when none is indexed. Exported so tests and chaos drills can
// damage the exact record a campaign will consult.
func (s *Store) Locate(key string) (path string, off int64, n int, ok bool) {
	p, ok := keyPrefix(key)
	if !ok {
		return "", 0, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.index[p]
	if !ok {
		return "", 0, 0, false
	}
	return s.segs[rec.seg].path, rec.off, int(rec.n), true
}

// Load returns the metrics cached under key. Every failure mode —
// nothing indexed, missing or unreadable segment, truncated or
// otherwise undecodable record, wrong schema version, another key's
// record, checksum mismatch, a closed Store — is reported as a miss
// (ok == false) and never an error: a damaged cache may cost a
// re-simulation but can never fail a campaign or corrupt a result. A
// hit allocates nothing.
func (s *Store) Load(key string) (m sim.Metrics, ok bool) {
	p, ok := keyPrefix(key)
	if !ok {
		return sim.Metrics{}, false
	}
	s.mu.Lock()
	rec, ok := s.index[p]
	var f *os.File
	if ok && !s.closed {
		f = s.handle(rec.seg)
	}
	s.mu.Unlock()
	if f == nil || rec.n > entrySize {
		return sim.Metrics{}, false
	}
	var buf [entrySize]byte
	data := buf[:rec.n]
	if _, err := f.ReadAt(data, rec.off); err != nil {
		return sim.Metrics{}, false
	}
	return readRecord(data, key)
}

// handle returns the read handle of segment seg, opening it if this is
// the first read from it, or nil if it cannot be opened. The caller
// holds s.mu.
func (s *Store) handle(seg int32) *os.File {
	sg := &s.segs[seg]
	if sg.f == nil {
		f, err := os.Open(sg.path)
		if err != nil {
			return nil
		}
		sg.f = f
	}
	return sg.f
}

// Close releases the read handles Load holds; every Load after it is a
// miss. Put is unaffected: it holds no handle between calls. Close
// returns the first error closing a handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	for i := range s.segs {
		if f := s.segs[i].f; f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			s.segs[i].f = nil
		}
	}
	return err
}

// Put records m under key by appending one record to the store's own
// segment, which the first Put creates. A crash mid-append leaves at
// worst a torn last line, which no Open indexes; a failed append also
// retires the segment, so the next Put starts a fresh one rather than
// writing after a possibly torn line. Errors are returned for
// observability, but callers treat them as non-fatal: a cache that
// cannot be written is just a cache that will miss.
func (s *Store) Put(key string, m sim.Metrics) error {
	p, ok := keyPrefix(key)
	if !ok {
		return fmt.Errorf("cache: malformed key %q", key)
	}
	e := entry{SchemaVersion: SchemaVersion, Key: key, Metrics: m}
	data, at, err := e.appendJSON(make([]byte, 0, entrySize))
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	data = jsonenc.SpliceChecksum(data, at)
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(data); err != nil {
		s.own = -1
		return fmt.Errorf("cache: %w", err)
	}
	s.index[p] = record{seg: int32(s.own), n: int32(len(data)), off: s.end}
	s.end += int64(len(data))
	return nil
}

// append writes rec at the end of the own segment, creating one first
// if there is none. The caller holds s.mu.
func (s *Store) append(rec []byte) error {
	var f *os.File
	var err error
	if s.own < 0 {
		f, err = s.create()
	} else {
		f, err = os.OpenFile(s.segs[s.own].path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return err
	}
	_, err = f.Write(rec)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// create makes a new, empty own segment. Its name — creation time,
// process id, attempt — sorts segments in creation order, so a record
// re-stored after damage outranks the damaged one at the next Open;
// O_EXCL guarantees no other writer holds the same file.
func (s *Store) create() (*os.File, error) {
	for attempt := 0; ; attempt++ {
		path := filepath.Join(s.dir, fmt.Sprintf("%020d-%d-%d%s",
			time.Now().UnixNano(), os.Getpid(), attempt, segExt))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) && attempt < 100 {
			continue
		}
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, segFile{path: path})
		s.own, s.end = len(s.segs)-1, 0
		return f, nil
	}
}
