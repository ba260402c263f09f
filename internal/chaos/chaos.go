// Package chaos is the deterministic fault-injection layer of the
// campaign fabric: a seeded schedule of failures (Plan) that an
// Injector plays into internal/driver's chaos seam, so that crash
// recovery, torn checkpoint flushes, corrupt or misdelivered shard
// artifacts, and stalled workers are reproducible experiments rather
// than flaky accidents.
//
// Determinism is the whole point. Every degree of freedom a fault rule
// leaves open — which shard, which grid cell, where a file is cut,
// which bit flips — is resolved from Plan.Seed through a per-rule
// splitmix-derived stream, independent of goroutine interleaving. The
// injector additionally records every injection as an Event and
// serves the log in a canonical order, so two runs of the same schedule
// produce byte-identical fault logs: the log is itself a diffable
// artifact, and a CI chaos failure replays locally from nothing but its
// seed and rule string (see docs/OPERATIONS.md, "Chaos drills").
//
// The injector only schedules faults; the damage itself is done by the
// fault points in internal/campaign (Fault, FaultPoint) and the hooks
// in internal/driver (ChaosHooks), which this package glues together
// via Injector.Hooks.
//
// The per-cell hooks fire on fold ordinals — the order cells land in a
// shard's checkpoint, which is deterministic per shard — not on the racy
// order the driver's pool happened to compute them, and a fault stops
// only the shard it hits, so a seeded plan plays out identically on
// every run.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"multicast/internal/campaign"
	"multicast/internal/driver"
	"multicast/internal/rng"
)

// Kind names one fault class the injector can schedule.
type Kind string

const (
	// KindCrash kills a shard worker right after it checkpoints a
	// chosen grid cell — the classic power-cord pull, but aimed.
	KindCrash Kind = "crash"
	// KindTornFlush tears a checkpoint flush inside the write-then-
	// rename temp file and kills the worker: the rename never runs, so
	// the previous sidecar survives and a retry resumes from it.
	KindTornFlush Kind = "torn-flush"
	// KindCorruptCheckpoint tears a checkpoint flush in place — the
	// sidecar itself ends up truncated mid-JSON — and kills the worker.
	// The retry's resume refuses the sidecar as corrupt, terminally.
	KindCorruptCheckpoint Kind = "corrupt-checkpoint"
	// KindTruncateArtifact silently truncates the shard artifact write
	// at a seeded byte offset; the worker believes it succeeded and the
	// damage surfaces at gather as ErrCorruptArtifact.
	KindTruncateArtifact Kind = "truncate-artifact"
	// KindBitFlipArtifact silently flips one seeded bit of the shard
	// artifact write; the checksum catches it at gather.
	KindBitFlipArtifact Kind = "bit-flip-artifact"
	// KindDuplicateShard misdelivers one shard's finished artifact into
	// another shard's slot during gather, so the merge sees a duplicate
	// shard and a missing one.
	KindDuplicateShard Kind = "duplicate-shard"
	// KindStall hangs a shard worker after a chosen cell until its
	// context is cancelled — the fault the driver -timeout path exists
	// for.
	KindStall Kind = "stall"
)

// Kinds lists every fault class, in the order documented above.
func Kinds() []Kind {
	return []Kind{KindCrash, KindTornFlush, KindCorruptCheckpoint,
		KindTruncateArtifact, KindBitFlipArtifact, KindDuplicateShard, KindStall}
}

// takesCell reports whether the kind fires at a per-cell trigger point
// (a grid cell for crash/stall, a flush ordinal for the checkpoint
// kinds).
func takesCell(k Kind) bool {
	switch k {
	case KindCrash, KindStall, KindTornFlush, KindCorruptCheckpoint:
		return true
	}
	return false
}

// Rule schedules one fault. The zero field value is not a usable rule:
// targets are explicit, with -1 meaning "let the seed decide" (and, for
// Attempt, "any attempt"). ParseRules builds rules with those defaults
// from the CLI grammar.
type Rule struct {
	// Kind is the fault class.
	Kind Kind `json:"kind"`
	// Shard targets a shard index; -1 resolves from the seed once the
	// shard count is known.
	Shard int `json:"shard"`
	// Cell is the trigger point within the shard's attempt: the 1-based
	// local cell count for crash/stall, the 1-based flush ordinal for
	// torn-flush/corrupt-checkpoint. -1 resolves from the seed; kinds
	// without a trigger point (artifact and gather faults) must leave
	// it unset.
	Cell int `json:"cell"`
	// Attempt restricts the fault to one worker attempt (0 = first);
	// -1 fires on any attempt. Rules fire at most once either way.
	Attempt int `json:"attempt"`
	// From is duplicate-shard's source shard (the artifact delivered
	// into Shard's slot); -1 picks a seeded shard ≠ Shard.
	From int `json:"from"`
}

// normalize validates r and fills the unset-value conventions in.
func (r Rule) normalize() (Rule, error) {
	known := false
	for _, k := range Kinds() {
		if r.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return r, fmt.Errorf("unknown fault kind %q (kinds: %v)", r.Kind, Kinds())
	}
	if r.Shard < -1 {
		return r, fmt.Errorf("%s: shard %d must be a shard index or -1", r.Kind, r.Shard)
	}
	if r.Attempt < -1 {
		return r, fmt.Errorf("%s: attempt %d must be an attempt number or -1", r.Kind, r.Attempt)
	}
	if takesCell(r.Kind) {
		if r.Cell == 0 {
			return r, fmt.Errorf("%s: cell must be ≥ 1 (cells are 1-based) or -1 for a seeded choice", r.Kind)
		}
		if r.Cell < -1 {
			return r, fmt.Errorf("%s: cell %d must be ≥ 1 or -1", r.Kind, r.Cell)
		}
	} else if r.Cell != 0 && r.Cell != -1 {
		return r, fmt.Errorf("%s does not take a cell (got %d)", r.Kind, r.Cell)
	} else {
		r.Cell = -1
	}
	if r.Kind == KindDuplicateShard {
		if r.From < -1 {
			return r, fmt.Errorf("%s: source shard %d must be a shard index or -1", r.Kind, r.From)
		}
		if r.From >= 0 && r.From == r.Shard {
			return r, fmt.Errorf("%s: source and target are both shard %d", r.Kind, r.From)
		}
	} else if r.From != 0 && r.From != -1 {
		return r, fmt.Errorf("only %s takes a source shard (got %d)", KindDuplicateShard, r.From)
	} else {
		r.From = -1
	}
	return r, nil
}

// Plan is a complete seeded fault schedule: the seed resolves every
// choice the rules leave open, so (Seed, Faults) fully determines which
// faults fire where — and therefore the fault event log.
type Plan struct {
	Seed   uint64 `json:"seed"`
	Faults []Rule `json:"faults"`
}

// Event is one injected fault, canonically serializable: Events returns
// the log sorted by (Shard, Attempt, Cell, Kind, Detail) with Seq
// assigned after sorting, so identical schedules yield byte-identical
// logs no matter how the shard goroutines interleaved.
type Event struct {
	// Seq numbers the event within the canonical order.
	Seq int `json:"seq"`
	// Kind is the fault class injected.
	Kind Kind `json:"kind"`
	// Shard is the shard the fault landed on.
	Shard int `json:"shard"`
	// Attempt is the worker attempt (-1 when not tied to one, e.g.
	// gather faults).
	Attempt int `json:"attempt"`
	// Cell is the trigger point (grid cell or flush ordinal; -1 when
	// the kind has none).
	Cell int `json:"cell"`
	// Detail describes the injected damage, deterministically.
	Detail string `json:"detail"`
}

// armedRule is a rule plus its runtime state: the per-rule random
// stream every seeded choice draws from (in a fixed per-rule order, so
// resolution is independent of cross-rule interleaving), and whether
// the rule already fired — every rule fires at most once.
type armedRule struct {
	Rule
	src          *rng.Source
	cellResolved bool
	fired        bool
}

func (r *armedRule) matchAttempt(attempt int) bool {
	return r.Attempt == -1 || r.Attempt == attempt
}

// Injector plays one Plan into a driven campaign. Safe for concurrent
// use by the driver's shard goroutines; create one per Run (rules fire
// at most once per Injector).
type Injector struct {
	mu      sync.Mutex
	rules   []*armedRule
	events  []Event
	flushes map[[2]int]int // (shard, attempt) → flush ordinal
	begun   bool
}

// New validates the plan and returns its injector.
func New(p Plan) (*Injector, error) {
	in := &Injector{flushes: make(map[[2]int]int)}
	sm := rng.NewSplitMix64(p.Seed)
	for i, r := range p.Faults {
		nr, err := r.normalize()
		if err != nil {
			return nil, fmt.Errorf("chaos: fault %d: %w", i, err)
		}
		// Each rule gets its own stream keyed by (seed, rule index).
		in.rules = append(in.rules, &armedRule{Rule: nr, src: rng.New(sm.Next())})
	}
	return in, nil
}

// Hooks adapts the injector to the driver's chaos seam.
func (in *Injector) Hooks() *driver.ChaosHooks {
	return &driver.ChaosHooks{
		Begin:           in.begin,
		Arm:             in.arm,
		Cell:            in.cell,
		CheckpointFault: in.checkpointFault,
		ArtifactFault:   in.artifactFault,
		Gather:          in.gather,
	}
}

// begin resolves seeded shard targets now that the shard count is
// known. Idempotent: replaying the injector into a second Run keeps the
// first resolution.
func (in *Injector) begin(shards int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.begun {
		return
	}
	in.begun = true
	for _, r := range in.rules {
		if r.Shard == -1 {
			r.Shard = int(r.src.Uint64n(uint64(shards)))
		}
		if r.Kind == KindDuplicateShard && r.From == -1 {
			if shards < 2 {
				r.fired = true // no second shard to misdeliver from
				continue
			}
			f := int(r.src.Uint64n(uint64(shards - 1)))
			if f >= r.Shard {
				f++
			}
			r.From = f
		}
		if r.Shard >= shards || r.From >= shards {
			r.fired = true // targets outside this run's split never fire
		}
	}
}

// arm resolves seeded cell triggers for one shard's attempt, against
// its local slice size.
func (in *Injector) arm(shard, attempt, done, cells int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Shard != shard || !takesCell(r.Kind) || r.cellResolved {
			continue
		}
		r.cellResolved = true
		if r.Cell == -1 {
			r.Cell = 1 + int(r.src.Uint64n(uint64(max(1, cells))))
		}
	}
}

// cell fires crash and stall rules after a checkpointed cell.
func (in *Injector) cell(ctx context.Context, shard, attempt, done int) error {
	in.mu.Lock()
	var fire *armedRule
	for _, r := range in.rules {
		if r.fired || (r.Kind != KindCrash && r.Kind != KindStall) {
			continue
		}
		if r.Shard != shard || !r.matchAttempt(attempt) || r.Cell != done {
			continue
		}
		r.fired = true
		fire = r
		break
	}
	if fire == nil {
		in.mu.Unlock()
		return nil
	}
	if fire.Kind == KindCrash {
		in.record(Event{Kind: KindCrash, Shard: shard, Attempt: attempt, Cell: done,
			Detail: "worker process dies after checkpointing this cell"})
		in.mu.Unlock()
		return injectedf("worker crash at shard %d cell %d (attempt %d)", shard, done, attempt)
	}
	in.record(Event{Kind: KindStall, Shard: shard, Attempt: attempt, Cell: done,
		Detail: "worker hangs after this cell until cancelled"})
	in.mu.Unlock()
	<-ctx.Done() // stall outside the lock: other shards keep running
	return fmt.Errorf("chaos: stalled worker at shard %d cell %d released: %w", shard, done, ctx.Err())
}

// checkpointFault fires torn-flush and corrupt-checkpoint rules on the
// matching flush ordinal of a shard attempt.
func (in *Injector) checkpointFault(shard, attempt int, data []byte) *campaign.Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := [2]int{shard, attempt}
	in.flushes[key]++
	n := in.flushes[key]
	for _, r := range in.rules {
		if r.fired || (r.Kind != KindTornFlush && r.Kind != KindCorruptCheckpoint) {
			continue
		}
		if r.Shard != shard || !r.matchAttempt(attempt) || r.Cell != n {
			continue
		}
		r.fired = true
		cut := int(r.src.Uint64n(uint64(len(data))))
		if r.Kind == KindTornFlush {
			in.record(Event{Kind: r.Kind, Shard: shard, Attempt: attempt, Cell: n,
				Detail: fmt.Sprintf("flush torn in the temp file after %d of %d bytes; rename never ran", cut, len(data))})
			return &campaign.Fault{Data: data[:cut],
				Err: injectedf("worker crash tearing checkpoint flush %d of shard %d (attempt %d)", n, shard, attempt)}
		}
		in.record(Event{Kind: r.Kind, Shard: shard, Attempt: attempt, Cell: n,
			Detail: fmt.Sprintf("sidecar torn in place after %d of %d bytes", cut, len(data))})
		return &campaign.Fault{Data: data[:cut], Torn: true,
			Err: injectedf("worker crash tearing checkpoint sidecar of shard %d in place (attempt %d)", shard, attempt)}
	}
	return nil
}

// artifactFault fires truncate- and bit-flip-artifact rules on the
// shard artifact write. Both are silent: the worker sees success and
// the damage is caught downstream by the artifact checksum.
func (in *Injector) artifactFault(shard, attempt int, data []byte) *campaign.Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.fired || (r.Kind != KindTruncateArtifact && r.Kind != KindBitFlipArtifact) {
			continue
		}
		if r.Shard != shard || !r.matchAttempt(attempt) {
			continue
		}
		r.fired = true
		if r.Kind == KindTruncateArtifact {
			cut := int(r.src.Uint64n(uint64(len(data))))
			in.record(Event{Kind: r.Kind, Shard: shard, Attempt: attempt, Cell: -1,
				Detail: fmt.Sprintf("artifact silently truncated to %d of %d bytes", cut, len(data))})
			return &campaign.Fault{Data: data[:cut], Torn: true}
		}
		bit := r.src.Uint64n(uint64(len(data)) * 8)
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		in.record(Event{Kind: r.Kind, Shard: shard, Attempt: attempt, Cell: -1,
			Detail: fmt.Sprintf("bit %d of byte %d silently flipped (%d bytes)", bit%8, bit/8, len(data))})
		return &campaign.Fault{Data: flipped, Torn: true}
	}
	return nil
}

// gather fires duplicate-shard rules between worker completion and the
// merge: the source shard's artifact is copied over the target's slot.
func (in *Injector) gather(dir string, shards int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.fired || r.Kind != KindDuplicateShard {
			continue
		}
		r.fired = true
		data, err := os.ReadFile(driver.ArtifactPath(dir, r.From))
		if err != nil {
			if os.IsNotExist(err) {
				continue // source shard never finished; nothing to misdeliver
			}
			return fmt.Errorf("chaos: duplicate-shard: %w", err)
		}
		if err := os.WriteFile(driver.ArtifactPath(dir, r.Shard), data, 0o644); err != nil {
			return fmt.Errorf("chaos: duplicate-shard: %w", err)
		}
		in.record(Event{Kind: r.Kind, Shard: r.Shard, Attempt: -1, Cell: -1,
			Detail: fmt.Sprintf("shard %d's artifact delivered into shard %d's slot", r.From, r.Shard)})
	}
	return nil
}

// record appends one event; Seq is assigned canonically in Events.
// Callers hold the mutex.
func (in *Injector) record(ev Event) { in.events = append(in.events, ev) }

// Events returns the fault log in canonical order: sorted by (Shard,
// Attempt, Cell, Kind, Detail), Seq numbered after sorting. Two runs of
// the same plan against the same campaign produce identical logs.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	evs := append([]Event(nil), in.events...)
	sort.SliceStable(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.Shard != y.Shard {
			return x.Shard < y.Shard
		}
		if x.Attempt != y.Attempt {
			return x.Attempt < y.Attempt
		}
		if x.Cell != y.Cell {
			return x.Cell < y.Cell
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Detail < y.Detail
	})
	for i := range evs {
		evs[i].Seq = i
	}
	return evs
}

// Log serializes the canonical event log as JSON lines — the diffable
// fault artifact a chaos run leaves behind.
func (in *Injector) Log() ([]byte, error) {
	var b strings.Builder
	for _, ev := range in.Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// injectedf builds a chaos failure wrapping driver.ErrInjected, so the
// driver can tell a simulated process death from a real error.
func injectedf(format string, args ...any) error {
	args = append(args, driver.ErrInjected)
	return fmt.Errorf("chaos: "+format+": %w", args...)
}

// ParseRules parses the -chaos-faults CLI grammar: comma-separated
// rules of the form
//
//	kind[@shard[:cell[:attempt]]]
//
// where each position is an integer or "*" (empty also works) for "let
// the seed decide". The attempt position defaults to 0 — the first
// attempt — not "*", so a plain rule fires before any retries. For
// duplicate-shard the second position names the source shard instead of
// a cell:
//
//	crash@1:2        crash shard 1 after its 2nd cell, attempt 0
//	crash            crash a seeded shard at a seeded cell
//	stall@*:3        stall a seeded shard after its 3rd cell
//	torn-flush@0:2   tear shard 0's 2nd checkpoint flush
//	duplicate-shard@2:0   deliver shard 0's artifact into shard 2's slot
//	crash@1:2:1      crash shard 1 again on its retry (attempt 1)
func ParseRules(s string) ([]Rule, error) {
	var rules []Rule
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kindStr, rest, targeted := strings.Cut(item, "@")
		r := Rule{Kind: Kind(kindStr), Shard: -1, Cell: -1, Attempt: 0, From: -1}
		if targeted {
			parts := strings.Split(rest, ":")
			if len(parts) > 3 {
				return nil, fmt.Errorf("chaos: rule %q: too many fields (want kind[@shard[:cell[:attempt]]])", item)
			}
			fields := []string{"shard", "cell", "attempt"}
			if r.Kind == KindDuplicateShard {
				fields[1] = "source shard"
			}
			vals := []*int{&r.Shard, &r.Cell, &r.Attempt}
			if r.Kind == KindDuplicateShard {
				vals[1] = &r.From
			}
			for i, p := range parts {
				p = strings.TrimSpace(p)
				if p == "" || p == "*" {
					if fields[i] == "attempt" {
						r.Attempt = -1
					}
					continue
				}
				v, err := strconv.Atoi(p)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("chaos: rule %q: %s %q must be a non-negative integer or *", item, fields[i], p)
				}
				*vals[i] = v
			}
		}
		nr, err := r.normalize()
		if err != nil {
			return nil, fmt.Errorf("chaos: rule %q: %w", item, err)
		}
		rules = append(rules, nr)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("chaos: no fault rules in %q", s)
	}
	return rules, nil
}
