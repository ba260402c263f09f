package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"

	"multicast/internal/jsonenc"
	"multicast/internal/sim"
)

// checkpointFile is the sidecar progress artifact a shard updates as
// its cells fold in: the partial shard summary plus how many of the
// shard's grid cells it covers. Because cells fold in ascending grid
// order, the covered cells are always the first DoneCells of the
// shard's slice, so resuming is "skip that many cells and keep folding
// into the restored collectors" — which replays the exact accumulator
// insertion order and keeps the finished artifact bit-identical to an
// uninterrupted run's.
type checkpointFile struct {
	SchemaVersion int `json:"schema_version"`
	// Checksum is the hex sha256 of the file's compact JSON encoding
	// with this field empty — same scheme as Summary.Checksum, so a
	// torn or bit-flipped sidecar reads as ErrCorruptCheckpoint instead
	// of resuming from damaged state.
	Checksum  string   `json:"checksum"`
	DoneCells int      `json:"done_cells"`
	Summary   *Summary `json:"summary"`
	// Schedule is "steal" in sidecars the driver's former work-stealing
	// schedule wrote; nothing writes it any more. It is still decoded and
	// re-encoded because Resume verifies the checksum by re-encoding the
	// decoded file: dropping the field would refuse every such sidecar
	// as corrupt. Resume ignores its value — DoneCells alone says where a
	// shard resumes.
	Schedule string `json:"schedule,omitempty"`
}

// appendJSON appends f's compact JSON encoding — byte-identical to what
// encoding/json writes for the checkpointFile struct — and returns the
// offset of the checksum string's contents. cached is passed on to the
// summary encoder (see Summary.appendJSON).
func (f *checkpointFile) appendJSON(dst []byte, cached [][]byte) ([]byte, int, error) {
	dst = append(dst, `{"schema_version":`...)
	dst = strconv.AppendInt(dst, int64(f.SchemaVersion), 10)
	dst = append(dst, `,"checksum":`...)
	at := len(dst) + 1
	dst = jsonenc.AppendString(dst, f.Checksum)
	dst = append(dst, `,"done_cells":`...)
	dst = strconv.AppendInt(dst, int64(f.DoneCells), 10)
	dst = append(dst, `,"summary":`...)
	if f.Summary == nil {
		dst = append(dst, "null"...)
	} else {
		var err error
		if dst, _, err = f.Summary.appendJSON(dst, cached); err != nil {
			return nil, 0, err
		}
	}
	if f.Schedule != "" {
		dst = append(dst, `,"schedule":`...)
		dst = jsonenc.AppendString(dst, f.Schedule)
	}
	return append(dst, '}'), at, nil
}

// digest returns f's content checksum (hex sha256 of the compact
// encoding with the Checksum field empty). buf is scratch space for the
// encoding.
func (f *checkpointFile) digest(buf []byte) (string, error) {
	c := *f
	c.Checksum = ""
	data, _, err := c.appendJSON(buf, nil)
	if err != nil {
		return "", err
	}
	return jsonenc.Digest(data), nil
}

// Checkpointer folds a shard's grid cells into its summary and persists
// a checkpoint at grid-cell granularity, atomically, so the worker can
// die at any instant and resume at its next undone cell. A checkpoint
// lagging behind the truth is harmless: the re-run cells are
// deterministic and their metrics are folded into a state that does not
// contain them yet.
//
// A flush encodes the sidecar once, into a buffer kept across flushes,
// and re-encodes only the collectors that changed since the last one:
// each point's encoded collector is cached, Add (the only mutator of
// the collectors) marks its point stale, and Resume, which replaces the
// whole summary, drops every cached encoding. So a per-cell flush costs
// one point's encoding plus the hash and the write.
type Checkpointer struct {
	path   string
	every  int
	done   int
	dirty  int // cells folded in since the last flush
	sum    *Summary
	buf    []byte   // the last flush's payload; reused by the next
	cached [][]byte // per point: its encoded collector, empty when stale

	// Fault, when non-nil, sees every flush's payload bytes and may
	// inject a storage failure in their place (see FaultPoint) — the
	// chaos harness's torn-flush seam. Set it before the first Add;
	// production checkpointers leave it nil.
	Fault FaultPoint
}

// NewCheckpointer returns a checkpointer persisting to path, starting
// from template's identity and shard layout with fresh collectors.
// every is the number of cells between flushes; 0 or 1 checkpoints
// after every cell.
func NewCheckpointer(path string, template *Summary, every int) *Checkpointer {
	if every < 1 {
		every = 1
	}
	sum := template.CloneEmpty()
	return &Checkpointer{path: path, every: every, sum: sum, cached: make([][]byte, len(sum.Points))}
}

// Resume loads the checkpoint file if it exists and adopts its state,
// returning the number of cells already done (0 when there is no
// checkpoint yet). A checkpoint from a different campaign or shard or
// with an unknown schema version is an error, and a torn, truncated,
// checksum-failing, or internally inconsistent sidecar is a wrapped
// ErrCorruptCheckpoint — resuming over either would corrupt the
// artifact silently. The refusals are deterministic: retrying replays
// them, so internal/driver treats them as terminal.
func (c *Checkpointer) Resume() (int, error) {
	data, err := os.ReadFile(c.path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil || f.SchemaVersion != SchemaVersion {
		return 0, fmt.Errorf("checkpoint %s: %w", c.path, refusal(data, err, ErrCorruptCheckpoint))
	}
	// The decoder copied everything out of data, so its bytes are the
	// scratch space for the verification encoding.
	want, err := f.digest(data[:0])
	if err != nil {
		return 0, fmt.Errorf("checkpoint %s: %w", c.path, err)
	}
	if f.Checksum != want {
		return 0, fmt.Errorf("checkpoint %s: %w: checksum %q does not match content digest %q",
			c.path, ErrCorruptCheckpoint, f.Checksum, want)
	}
	if f.Summary == nil {
		return 0, fmt.Errorf("checkpoint %s: %w: no summary payload", c.path, ErrCorruptCheckpoint)
	}
	if err := f.Summary.Validate(); err != nil {
		return 0, fmt.Errorf("checkpoint %s: %w", c.path, err)
	}
	if got, want := f.Summary.Identity(), c.sum.Identity(); got != want {
		return 0, fmt.Errorf("checkpoint %s is from a different campaign:\n  %s\nvs this campaign:\n  %s",
			c.path, indent(got), indent(want))
	}
	if f.Summary.ShardIndex != c.sum.ShardIndex || f.Summary.ShardCount != c.sum.ShardCount {
		return 0, fmt.Errorf("checkpoint %s is for shard %d/%d, not %d/%d",
			c.path, f.Summary.ShardIndex, f.Summary.ShardCount, c.sum.ShardIndex, c.sum.ShardCount)
	}
	if f.DoneCells < 0 || f.Summary.Cells() != int64(f.DoneCells) {
		return 0, fmt.Errorf("checkpoint %s: %w: %d cells recorded but collectors hold %d",
			c.path, ErrCorruptCheckpoint, f.DoneCells, f.Summary.Cells())
	}
	c.sum = f.Summary
	c.cached = make([][]byte, len(c.sum.Points))
	c.done = f.DoneCells
	c.dirty = 0
	return c.done, nil
}

// Add folds one grid cell's metrics into the shard summary and flushes
// the checkpoint if one is due. It has the runner.SweepSink signature.
func (c *Checkpointer) Add(point, trial int, m sim.Metrics) error {
	if point < 0 || point >= len(c.sum.Points) {
		return fmt.Errorf("checkpoint %s: cell for point %d of %d", c.path, point, len(c.sum.Points))
	}
	if err := c.sum.Points[point].Collector.Add(trial, m); err != nil {
		return err
	}
	c.cached[point] = c.cached[point][:0]
	c.done++
	c.dirty++
	if c.dirty >= c.every {
		return c.Flush()
	}
	return nil
}

// Flush persists the current state, checksummed and atomically
// (write-then-rename): a crash mid-flush leaves the previous checkpoint
// intact. A configured Fault point may tear or corrupt the write
// instead.
func (c *Checkpointer) Flush() error {
	f := checkpointFile{
		SchemaVersion: SchemaVersion,
		DoneCells:     c.done,
		Summary:       c.sum,
	}
	data, at, err := f.appendJSON(c.buf[:0], c.cached)
	if err != nil {
		return err
	}
	data = jsonenc.SpliceChecksum(data, at)
	c.buf = data
	if c.Fault != nil {
		if flt := c.Fault(data); flt != nil {
			return flt.apply(c.path)
		}
	}
	if err := writeAtomic(c.path, data); err != nil {
		return err
	}
	c.dirty = 0
	return nil
}

// Done returns the number of grid cells folded in so far — how many of
// the shard's cells a resumed run skips.
func (c *Checkpointer) Done() int { return c.done }

// Summary returns the shard summary under accumulation. The caller owns
// writing it as the shard artifact once the shard's slice is complete,
// but must fold cells in through Add only: Add is what marks a point's
// cached encoding stale for the next flush.
func (c *Checkpointer) Summary() *Summary { return c.sum }

// Remove deletes the checkpoint file (after the shard artifact is
// safely written); a missing file is not an error.
func (c *Checkpointer) Remove() error {
	if err := os.Remove(c.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
