package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multicast/internal/runner"
	"multicast/internal/sim"
)

// An interrupted shard worker must resume at its next undone cell and
// finish with an artifact byte-identical to an uninterrupted run's —
// for every interruption point, including before the first cell and
// after the last.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const trials, shardIdx, shardCount = 4, 1, 2
	dir := t.TempDir()
	points := testPoints()
	shardTemplate := func() *Summary {
		s := template(trials).CloneEmpty()
		s.ShardIndex, s.ShardCount = shardIdx, shardCount
		return s
	}
	plan := runner.SweepPlan{
		Trials:  trials,
		Shard:   runner.Shard{Index: shardIdx, Count: shardCount},
		Workers: 2,
	}

	// Reference: the uninterrupted shard artifact.
	want := shardTemplate()
	err := runner.RunSweep(context.Background(), points, plan,
		func(p, tr int, m sim.Metrics) error { return want.Points[p].Collector.Add(tr, m) })
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	local := int(want.Cells()) // cells on this shard

	errStop := fmt.Errorf("injected crash")
	for stop := 0; stop <= local; stop++ {
		path := filepath.Join(dir, fmt.Sprintf("stop%d.ckpt", stop))

		// First attempt: die (sink error — the worker never flushes
		// anything beyond its checkpoint) after `stop` cells. stop=0 is
		// a crash before the first cell: no checkpoint exists at all.
		if stop > 0 {
			ck := NewCheckpointer(path, shardTemplate(), 1)
			err := runner.RunSweep(context.Background(), points, plan,
				func(p, tr int, m sim.Metrics) error {
					if err := ck.Add(p, tr, m); err != nil {
						return err
					}
					if ck.Done() == stop {
						return errStop
					}
					return nil
				})
			if stop < local && err == nil {
				t.Fatalf("stop=%d: first attempt did not crash", stop)
			}
		}

		// Second attempt: fresh checkpointer, resume, finish.
		ck := NewCheckpointer(path, shardTemplate(), 1)
		done, err := ck.Resume()
		if err != nil {
			t.Fatalf("stop=%d: resume: %v", stop, err)
		}
		if done != stop {
			t.Fatalf("stop=%d: resumed at %d cells", stop, done)
		}
		// The shard's cells arrive in ascending order, so the first done
		// of them are exactly the checkpointed prefix.
		seen := 0
		err = runner.RunSweep(context.Background(), points, plan,
			func(p, tr int, m sim.Metrics) error {
				if seen++; seen <= done {
					return nil
				}
				return ck.Add(p, tr, m)
			})
		if err != nil {
			t.Fatalf("stop=%d: resumed run: %v", stop, err)
		}
		if ck.Done() != local {
			t.Fatalf("stop=%d: finished with %d of %d cells", stop, ck.Done(), local)
		}
		gotJSON, err := json.Marshal(ck.Summary())
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("stop=%d: resumed artifact differs from the uninterrupted run's", stop)
		}
		if err := ck.Remove(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("stop=%d: checkpoint not removed", stop)
		}
	}
}

// Resuming over a checkpoint that belongs to a different campaign or a
// different shard slice must be refused, not silently folded in.
func TestCheckpointResumeRefusesMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.ckpt")
	tmpl := func(i, k int) *Summary {
		s := template(3).CloneEmpty()
		s.ShardIndex, s.ShardCount = i, k
		return s
	}

	ck := NewCheckpointer(path, tmpl(0, 2), 1)
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	other := template(3)
	other.Seed++
	otherTmpl := other.CloneEmpty()
	otherTmpl.ShardIndex, otherTmpl.ShardCount = 0, 2
	if _, err := NewCheckpointer(path, otherTmpl, 1).Resume(); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Errorf("err = %v, want a different-campaign refusal", err)
	}

	if _, err := NewCheckpointer(path, tmpl(1, 2), 1).Resume(); err == nil ||
		!strings.Contains(err.Error(), "shard") {
		t.Errorf("err = %v, want a wrong-shard refusal", err)
	}

	// A missing checkpoint is a clean cold start, not an error.
	if done, err := NewCheckpointer(filepath.Join(dir, "absent.ckpt"), tmpl(0, 2), 1).Resume(); err != nil || done != 0 {
		t.Errorf("missing checkpoint: done=%d err=%v, want 0, nil", done, err)
	}
}

// The schedule key is legacy: Flush never writes it, so sidecars keep
// the layout the static schedule always wrote; a sidecar the steal
// schedule stamped "schedule":"steal" still resumes (see
// TestFixturesReencodeByteIdentical); and because the checksum covers
// the key, tampering with it is refused as corrupt.
func TestCheckpointScheduleField(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.ckpt")
	if err := NewCheckpointer(fresh, template(3).CloneEmpty(), 1).Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "schedule") {
		t.Errorf("flushed sidecar mentions schedule: %s", data)
	}

	data, err = os.ReadFile("testdata/checkpoint.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"schedule":"steal"`, `"schedule":"static"`, 1)
	if tampered == string(data) {
		t.Fatal("tamper substitution did not apply")
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	stolen := filepath.Join(dir, "steal.ckpt")
	if err := os.WriteFile(stolen, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpointer(stolen, f.Summary.CloneEmpty(), 1).Resume(); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("tampered schedule: err = %v, want ErrCorruptCheckpoint", err)
	}
}

// A checkpoint whose cell count disagrees with its collector state is
// corrupt and must be refused.
func TestCheckpointResumeRefusesCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.ckpt")
	tmpl := template(3).CloneEmpty()
	ck := NewCheckpointer(path, tmpl, 1)
	if err := ck.Flush(); err != nil {
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
	raw["done_cells"] = 5
	data, err = json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpointer(path, template(3).CloneEmpty(), 1).Resume(); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Errorf("err = %v, want a corrupt-checkpoint refusal", err)
	}
}
