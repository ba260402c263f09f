package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multicast/internal/jsonenc"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

// A summary artifact truncated at any byte boundary must either read
// back exactly (the cut only removed trailing whitespace) or fail with
// a wrapped ErrCorruptArtifact — never decode to a wrong-but-accepted
// summary, and never surface as a raw decode error.
func TestReadRejectsTruncatedArtifact(t *testing.T) {
	dir := t.TempDir()
	s := runShard(t, 3, 0, 2)
	path := filepath.Join(dir, "s.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.json")
	corrupt, intact := 0, 0
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Read(cut)
		if err == nil {
			// Only a cut inside trailing whitespace can decode — and then
			// it must decode to the identical summary.
			rt, merr := json.Marshal(got)
			if merr != nil {
				t.Fatal(merr)
			}
			if string(rt) != string(want) {
				t.Fatalf("cut at byte %d of %d accepted with different content", n, len(data))
			}
			intact++
			continue
		}
		if !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("cut at byte %d of %d: err = %v, want ErrCorruptArtifact", n, len(data), err)
		}
		corrupt++
	}
	// Sanity: the loop exercised the corrupt path (everything except the
	// final cut, which only drops the trailing newline).
	if corrupt < len(data)-1 || intact > 1 {
		t.Errorf("%d corrupt / %d intact cuts of %d bytes — truncation sweep looks wrong", corrupt, intact, len(data))
	}
}

// No single bit flip anywhere in an artifact may be silently accepted
// with changed content: it must fail Read (as corruption, a version
// refusal when it hits the version digits, or a validation error) or
// decode to the identical summary (a flip in insignificant whitespace).
func TestReadRejectsBitFlippedArtifact(t *testing.T) {
	dir := t.TempDir()
	s := runShard(t, 2, 1, 2)
	path := filepath.Join(dir, "s.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	flip := filepath.Join(dir, "flip.json")
	for n := range data {
		mut := append([]byte(nil), data...)
		mut[n] ^= 1 << (n % 8) // vary the flipped bit with position
		if err := os.WriteFile(flip, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Read(flip)
		if err != nil {
			continue // refused — any named refusal is a safe outcome
		}
		rt, merr := json.Marshal(got)
		if merr != nil {
			t.Fatal(merr)
		}
		if string(rt) != string(want) {
			t.Fatalf("flipping bit %d of byte %d was accepted with changed content", n%8, n)
		}
	}
}

// The checksum pins the whole content: semantically valid tampering
// (bump a count, reorder nothing) that plain decoding would accept must
// read as ErrCorruptArtifact.
func TestReadRejectsTamperedContent(t *testing.T) {
	dir := t.TempDir()
	s := runShard(t, 2, 0, 1)
	path := filepath.Join(dir, "s.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["seed"] = 9999 // decodes fine; checksum must catch it
	data, err = json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); !errors.Is(err, ErrCorruptArtifact) {
		t.Errorf("err = %v, want ErrCorruptArtifact", err)
	}
}

// A checkpoint sidecar torn at any byte boundary must either resume
// cleanly from the exact prefix state it persists or be refused as a
// wrapped ErrCorruptCheckpoint — never resume into a wrong-but-accepted
// state. The sidecar is compact JSON with a content checksum, so every
// proper prefix is a refusal and only an intact file resumes.
func TestCheckpointResumeTornSidecarEveryByte(t *testing.T) {
	const trials, shardIdx, shardCount = 4, 0, 2
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.ckpt")
	points := testPoints()
	shardTemplate := func() *Summary {
		s := template(trials).CloneEmpty()
		s.ShardIndex, s.ShardCount = shardIdx, shardCount
		return s
	}

	// Run two cells through a checkpointer to get a real mid-campaign
	// sidecar, keeping the bytes of both flush generations.
	var flush1, flush2 []byte
	ck := NewCheckpointer(path, shardTemplate(), 1)
	errStop := fmt.Errorf("stop")
	err := runner.RunSweep(context.Background(), points,
		runner.SweepPlan{Trials: trials, Shard: runner.Shard{Index: shardIdx, Count: shardCount}, Workers: 1},
		func(p, tr int, m sim.Metrics) error {
			if err := ck.Add(p, tr, m); err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			switch ck.Done() {
			case 1:
				flush1 = data
			case 2:
				flush2 = data
				return errStop
			}
			return nil
		})
	if !errors.Is(err, errStop) {
		t.Fatalf("seed run: %v", err)
	}

	// Every proper prefix of the current sidecar is a clean refusal.
	for cut := 0; cut < len(flush2); cut++ {
		if err := os.WriteFile(path, flush2[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		done, err := NewCheckpointer(path, shardTemplate(), 1).Resume()
		if err == nil {
			t.Fatalf("cut at byte %d of %d resumed with done=%d — wrong-but-accepted", cut, len(flush2), done)
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("cut at byte %d of %d: err = %v, want ErrCorruptCheckpoint", cut, len(flush2), err)
		}
	}

	// The intact current and previous flush generations both resume
	// cleanly from exactly the state they persist — the
	// resume-from-prefix half of the contract (a torn write-then-rename
	// leaves the previous generation behind).
	for wantDone, data := range map[int][]byte{1: flush1, 2: flush2} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		done, err := NewCheckpointer(path, shardTemplate(), 1).Resume()
		if err != nil {
			t.Fatalf("flush %d: resume: %v", wantDone, err)
		}
		if done != wantDone {
			t.Errorf("flush %d: resumed at %d cells", wantDone, done)
		}
	}
}

// FuzzArtifactRead feeds arbitrary bytes to Read and to Resume. Neither
// may panic, and whatever either accepts must be the canonical encoding
// up to whitespace: re-encoding what it decoded gives the input's bytes
// with their whitespace stripped (a sidecar's legacy schedule key
// aside, which a re-flush drops). The checksum stops almost every
// mutation, so each input is also read compacted and re-stamped with
// the digest of its own bytes: the decoders meet the mutations too. The
// seeds are a small artifact and sidecar in both layouts and the
// committed fixtures, compacted.
func FuzzArtifactRead(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "in")
	small := New("fuzz", 3, 2, []Point{{Label: "<a>", Workload: "w \u2028"}})
	sum := small.CloneEmpty()
	ck := NewCheckpointer(path, small.CloneEmpty(), 1)
	for tr := 0; tr < 2; tr++ {
		if err := sum.Points[0].Collector.Add(tr, pinMetrics(tr+3)); err != nil {
			f.Fatal(err)
		}
		if err := ck.Add(0, tr, pinMetrics(tr+3)); err != nil {
			f.Fatal(err)
		}
	}
	sidecar, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := sum.Write(path); err != nil {
		f.Fatal(err)
	}
	artifact, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(artifact)
	f.Add(sidecar)
	f.Add(jsonenc.AppendIndent(nil, sidecar))
	templates := []*Summary{small.CloneEmpty()}
	for _, fixture := range []string{"testdata/shard-artifact.json", "testdata/checkpoint.ckpt", "testdata/checkpoint-noschedule.ckpt"} {
		data, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		compact, err := jsonenc.AppendCompact(nil, data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compact)
		var claimed checkpointFile
		if err := json.Unmarshal(data, &claimed); err == nil && claimed.Summary != nil {
			templates = append(templates, claimed.Summary.CloneEmpty())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, restampRecord(data)} {
			if in == nil {
				continue
			}
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := Read(path); err == nil {
				c := *s
				c.Checksum = ""
				enc, at, err := c.appendJSON(nil, nil)
				if err != nil {
					t.Fatalf("accepted artifact does not re-encode: %v", err)
				}
				requireCanonical(t, "artifact", in, jsonenc.SpliceChecksum(enc, at))
			}
			for _, tmpl := range templates {
				ck := NewCheckpointer(path, tmpl, 1)
				if _, err := ck.Resume(); err != nil {
					continue
				}
				if err := ck.Flush(); err != nil {
					t.Fatalf("resumed checkpointer does not flush: %v", err)
				}
				flushed, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				want, err := jsonenc.AppendCompact(nil, in)
				if err != nil {
					t.Fatalf("accepted sidecar does not compact: %v", err)
				}
				if i := bytes.LastIndex(want, []byte(`,"schedule":`)); i >= 0 {
					// The legacy key closes the sidecar; a re-flush writes
					// the same state without it, checksummed anew.
					at := len(`{"schema_version":2,"checksum":"`)
					want = jsonenc.SpliceChecksum(append(append(want[:at:at], want[at+jsonenc.DigestLen:i]...), '}'), at)
				}
				if !bytes.Equal(flushed, want) {
					t.Fatalf("accepted sidecar is not canonical:\n%s\nre-flushes as\n%s", want, flushed)
				}
				break
			}
		}
	})
}

// requireCanonical fails unless enc, a re-encoding of what a reader
// accepted from data, is data with its whitespace stripped.
func requireCanonical(t *testing.T, what string, data, enc []byte) {
	t.Helper()
	compact, err := jsonenc.AppendCompact(nil, data)
	if err != nil || !bytes.Equal(compact, enc) {
		t.Fatalf("accepted %s is not canonical (%v):\n%s\nre-encodes as\n%s", what, err, compact, enc)
	}
}

// restampRecord returns data compacted, with the 64 characters after
// its first checksum key replaced by the digest of the rest — a record
// whose checksum holds over whatever it says — or nil if data does not
// compact or has no room for the digits.
func restampRecord(data []byte) []byte {
	out, err := jsonenc.AppendCompact(nil, data)
	key := []byte(`"checksum":"`)
	i := bytes.Index(out, key)
	if err != nil || i < 0 || i+len(key)+jsonenc.DigestLen >= len(out) {
		return nil
	}
	at := i + len(key)
	body := append(append([]byte(nil), out[:at]...), out[at+jsonenc.DigestLen:]...)
	sum := sha256.Sum256(body)
	hex.Encode(out[at:], sum[:])
	return out
}
