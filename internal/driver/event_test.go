package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// Every EventKind must cross the JSON boundary losslessly: emit mirrors
// the typed Err into ErrText, and every other field carries a tag, so
// decoding an encoded event loses nothing but the in-process error
// value itself.
func TestEventJSONRoundTrip(t *testing.T) {
	for _, kind := range []EventKind{EventStart, EventCell, EventShardDone, EventRetry, EventDiscard} {
		ev := Event{Shard: 2, Kind: kind, Done: 3, Total: 9, Attempt: 1}
		if kind == EventRetry || kind == EventDiscard {
			ev.Err = errors.New("worker exploded")
		}
		var emitted Event
		d := &drive{opts: Options{Progress: func(e Event) { emitted = e }}}
		d.emit(ev)
		if ev.Err != nil && emitted.ErrText != ev.Err.Error() {
			t.Errorf("%s: emit filled ErrText = %q, want %q", kind, emitted.ErrText, ev.Err.Error())
		}
		data, err := json.Marshal(emitted)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var got Event
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		want := emitted
		want.Err = nil // the typed error is in-process only; ErrText carries it
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v\njson %s", kind, got, want, data)
		}
	}
}

// The JSON-lines progress stream is part of the interface orchestrators
// script against: a seeded single-shard campaign (serial, so event
// order is deterministic) with one forced retry must emit a
// byte-identical stream. A schema change fails this test until the
// golden file is deliberately regenerated with -update-golden.
func TestProgressGolden(t *testing.T) {
	spec := testSpec(2)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_, err := Run(context.Background(), spec, Options{
		Shards: 1, Workers: 1, Dir: t.TempDir(), Retries: 1,
		Progress: func(ev Event) {
			if err := enc.Encode(ev); err != nil {
				t.Error(err)
			}
		},
		Chaos: cellHook(func(shard, attempt, done int) error {
			if attempt == 0 && done == 2 {
				return errors.New("injected golden crash")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "progress.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("progress stream diverged from %s — schema changes need a deliberate -update-golden regen\n got:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// checkEventInvariants audits a campaign's event stream shard by shard:
// attempts never go backwards, Done advances one cell at a time from
// the attempt's starting point, a shard finishes exactly once with
// Done == Total, and the cells folded in the finishing attempt account
// for exactly the slice beyond its resumed prefix.
func checkEventInvariants(t *testing.T, events []Event, k int) {
	t.Helper()
	type shardState struct {
		attempt  int
		done     int
		started  bool // EventStart seen for the current attempt
		finished bool
	}
	st := make([]shardState, k)
	for i := range st {
		st[i].attempt = -1
	}
	for _, ev := range events {
		if ev.Shard < 0 || ev.Shard >= k {
			t.Fatalf("event for shard %d of %d: %+v", ev.Shard, k, ev)
		}
		s := &st[ev.Shard]
		if ev.Attempt < s.attempt {
			t.Errorf("shard %d: attempt went backwards, %d after %d", ev.Shard, ev.Attempt, s.attempt)
		}
		if ev.Attempt > s.attempt {
			s.attempt, s.started = ev.Attempt, false
		}
		if s.finished && ev.Kind != EventShardDone {
			t.Errorf("shard %d: %s event after shard-done", ev.Shard, ev.Kind)
		}
		switch ev.Kind {
		case EventStart:
			if s.started {
				t.Errorf("shard %d: second start within attempt %d", ev.Shard, ev.Attempt)
			}
			s.started, s.done = true, ev.Done
		case EventCell:
			if !s.started {
				t.Errorf("shard %d: cell event before any start in attempt %d", ev.Shard, ev.Attempt)
			}
			if ev.Done != s.done+1 {
				t.Errorf("shard %d: cell done %d after %d — out of order", ev.Shard, ev.Done, s.done)
			}
			s.done = ev.Done
		case EventShardDone:
			if ev.Done != ev.Total {
				t.Errorf("shard %d: shard-done at %d of %d cells", ev.Shard, ev.Done, ev.Total)
			}
			if s.started && s.done != ev.Total {
				t.Errorf("shard %d: shard-done claims %d cells but starts+cells account for %d",
					ev.Shard, ev.Total, s.done)
			}
			if s.finished {
				t.Errorf("shard %d: finished twice", ev.Shard)
			}
			s.finished = true
		case EventRetry:
			if s.finished {
				t.Errorf("shard %d: retry after shard-done", ev.Shard)
			}
		case EventDiscard:
			// A discard precedes the attempt's start; nothing to track.
		default:
			t.Errorf("shard %d: unknown event kind %q", ev.Shard, ev.Kind)
		}
	}
	for i := range st {
		if !st[i].finished {
			t.Errorf("shard %d never reported shard-done", i)
		}
	}
}

// Event accounting holds through an in-run retry: per shard, EventCell
// events advance Done one at a time to Total, exactly once each
// attempt, never interleaving out of order.
func TestEventAccountingInvariants(t *testing.T) {
	spec := testSpec(6)
	want := unsharded(t, spec)
	var mu sync.Mutex
	var events []Event
	sum, err := Run(context.Background(), spec, Options{
		Shards: 3, Workers: 2, Dir: t.TempDir(), Retries: 1,
		Progress: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		},
		Chaos: cellHook(func(shard, attempt, done int) error {
			if shard == 1 && attempt == 0 && done == 2 {
				return fmt.Errorf("transient crash")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkEventInvariants(t, events, 3)
	retried := false
	for _, ev := range events {
		if ev.Kind == EventRetry && ev.Shard == 1 {
			retried = true
			if ev.ErrText == "" {
				t.Error("retry event carries no ErrText")
			}
		}
	}
	if !retried {
		t.Error("the transient crash produced no retry event for shard 1")
	}
	assertSameSummaries(t, sum, want)
}
