// Package sim is the synchronous execution engine: it advances the slot
// loop of one execution (adversary → node actions → channel resolution →
// feedback → end-of-slot bookkeeping), enforces Eve's budget, audits the
// paper's safety invariants, and collects the metrics the experiments
// report.
//
// Two slot-loop implementations exist (Config.Engine): the dense
// reference loop steps every non-halted node every slot, and the event
// engine (event.go) uses the protocol.Sleeper contract to keep node
// wakes in a global event calendar, skipping slots in which no node acts
// (charging Eve for skipped jamming in aggregate) and resolving wake
// slots without the radio bookkeeping. Node randomness follows the
// gap-draw discipline (see protocol.Sleeper): each node pre-draws the
// geometric gap to its next action, so idle slots consume no RNG in
// either engine — the dense loop makes the identical gap draws through
// the shared node code, which is what keeps the engines bit-identical by
// construction. Both produce bit-identical Metrics; the event engine is
// what Auto runs, and the dense loop is retained as the equivalence
// oracle.
//
// One goroutine drives one execution; statistical replication (parallel
// seeded trials, sharding, streaming sinks) is the job of
// multicast/internal/runner, which derives trial seeds from Config.Seed
// and cancels in-flight executions through Config.Interrupt. The engine
// is deterministic given (Config, Seed): parallel and serial trial runs
// produce identical per-trial metrics.
package sim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"multicast/internal/adversary"
	"multicast/internal/bitset"
	"multicast/internal/jsonenc"
	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

// Engine selects the slot-loop implementation.
type Engine uint8

const (
	// EngineAuto (the zero value) runs the event engine. It needs no
	// preconditions — non-Sleeper nodes simply wake every slot, and an
	// adaptive Eve or an Observer turns off range skipping — and it
	// measured faster than the dense loop on every workload the CLIs and
	// the scenario registry build (docs/PERFORMANCE.md).
	EngineAuto Engine = iota
	// EngineDense is the reference implementation: every non-halted node
	// is stepped in every slot. It is retained as the equivalence oracle
	// for the event engine and runs only when asked for.
	EngineDense
	// EngineEvent runs the global event-calendar loop (event.go): wakes
	// live in a 4096-slot calendar keyed by the next network event, slot
	// ranges in which no node acts are fast-forwarded with aggregate
	// adversary accounting, and wake slots resolve through a lean step
	// that bypasses the radio.Network slot machinery (energy metering
	// still lands in the network's meters). Executions are bit-identical
	// to EngineDense; adaptive adversaries and Observers disable range
	// skipping and the lean step (every slot still resolves) but idle
	// nodes are still not stepped.
	EngineEvent
)

// ParseEngine resolves an engine name ("auto", "dense", "event",
// case-insensitive) to an Engine.
func ParseEngine(s string) (Engine, error) {
	for _, e := range []Engine{EngineAuto, EngineDense, EngineEvent} {
		if strings.EqualFold(s, e.String()) {
			return e, nil
		}
	}
	return EngineAuto, fmt.Errorf("sim: unknown engine %q (have auto, dense, event)", s)
}

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineDense:
		return "dense"
	case EngineEvent:
		return "event"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// Config describes one execution (or one family of trials).
type Config struct {
	// N is the number of honest nodes; node 0 is the source.
	N int
	// Algorithm builds a fresh protocol instance per trial. Instances may
	// keep mutable schedule caches, so they must not be shared.
	Algorithm func() (protocol.Algorithm, error)
	// Adversary is Eve's strategy family. Nil means no adversary.
	Adversary adversary.Factory
	// Budget is Eve's energy budget T.
	Budget int64
	// Seed determines all randomness of the trial.
	Seed uint64
	// MaxSlots is a hard safety valve: executions exceeding it fail with
	// ErrMaxSlots. Zero means DefaultMaxSlots.
	MaxSlots int64
	// Observer, if non-nil, receives per-slot callbacks (tracing). It
	// slows the hot loop; leave nil for measurements.
	Observer Observer
	// Engine selects the slot-loop implementation; the zero value (Auto)
	// runs the event engine. Dense and Event produce bit-identical
	// Metrics for every configuration.
	Engine Engine
	// Interrupt, if non-nil, aborts the execution with ErrInterrupted
	// shortly after the channel is closed. The dense loop polls it every
	// interruptStride slots and the event loop every interruptStride
	// iterations (each at least one slot), so the hot loop pays nothing
	// measurable for it. The trial runner wires a context's Done channel
	// here to cancel in-flight work.
	Interrupt <-chan struct{}
}

// DefaultMaxSlots bounds runaway executions (~1.3·10⁸ slots).
const DefaultMaxSlots = int64(1) << 27

// ErrMaxSlots reports that an execution did not terminate within MaxSlots.
var ErrMaxSlots = errors.New("sim: execution exceeded MaxSlots without terminating")

// ErrInterrupted reports that an execution was aborted via Config.Interrupt.
var ErrInterrupted = errors.New("sim: execution interrupted")

// interruptStride is how many slots pass between Interrupt polls: rare
// enough to be free, frequent enough that cancellation lands within
// microseconds at measured engine throughput.
const interruptStride = 1 << 12

// Observer receives tracing callbacks. All slots of one execution are
// reported from a single goroutine.
type Observer interface {
	// Slot is called after each slot resolves.
	Slot(slot int64, channels, jammed, listeners, broadcasters, informed, halted int)
}

// Metrics summarises one execution.
type Metrics struct {
	// Slots is the number of slots until the last node halted.
	Slots int64
	// MaxNodeEnergy is max_u cost(u) — the quantity bounded by
	// resource-competitiveness (Definition 3.1).
	MaxNodeEnergy int64
	// SourceEnergy is the source node's cost.
	SourceEnergy int64
	// MeanNodeEnergy is the average node cost.
	MeanNodeEnergy float64
	// EveEnergy is T(π): what Eve actually spent.
	EveEnergy int64
	// AllInformedSlot is the number of slots until every node knew m
	// (-1 if never).
	AllInformedSlot int64
	// FirstHelperSlot is the number of slots until some node reached
	// helper status (-1 if never; always -1 for Core/MultiCast).
	FirstHelperSlot int64
	// FirstHaltSlot is the number of slots until the first halt
	// (-1 if none halted).
	FirstHaltSlot int64
	// Invariants records safety-property violations (all zero in a
	// correct execution; the paper proves them w.h.p.).
	Invariants InvariantCounts
	// HelperJCounts histograms the phase number jˆ at which nodes became
	// helpers (MultiCastAdv variants only; index = jˆ, capped at the last
	// bucket). Lemmas 6.1–6.3 predict all mass at jˆ = lg n − 1; the
	// cut-off variant (Corollary C.1) predicts jˆ = lg C.
	HelperJCounts [MaxHelperJBucket + 1]int32
}

// MaxHelperJBucket is the largest tracked jˆ; larger values clamp into it.
const MaxHelperJBucket = 23

// helperPhaser is implemented by MultiCastAdv nodes: it reports the phase
// (iˆ, jˆ) recorded at the helper transition.
type helperPhaser interface {
	HelperPhase() (i, j int)
}

// InvariantCounts tallies violations of the paper's safety lemmas.
type InvariantCounts struct {
	// HaltedUninformed counts nodes that halted without knowing m
	// (violates Lemma 4.2 / 5.2 / Theorem 6.10(a)).
	HaltedUninformed int
	// HaltBeforeAllInformed counts halt events that happened while some
	// node was still uninformed at the end of the slot (Lemmas 4.2/5.2).
	HaltBeforeAllInformed int
	// HelperBeforeAllInformed counts helper transitions while some node
	// was still uninformed (Lemma 6.4).
	HelperBeforeAllInformed int
	// HaltBeforeAllHelpers counts halts of helper nodes while some
	// active node had not reached helper status (Lemma 6.5); it only
	// applies to MultiCastAdv variants.
	HaltBeforeAllHelpers int
}

// Add accumulates counts (used when aggregating trials).
func (c *InvariantCounts) Add(other InvariantCounts) {
	c.HaltedUninformed += other.HaltedUninformed
	c.HaltBeforeAllInformed += other.HaltBeforeAllInformed
	c.HelperBeforeAllInformed += other.HelperBeforeAllInformed
	c.HaltBeforeAllHelpers += other.HaltBeforeAllHelpers
}

// AppendJSON appends c as compact JSON under its Go field names —
// exactly what encoding/json writes for the struct, which the artifact
// and cache-entry checksums depend on.
func (c InvariantCounts) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"HaltedUninformed":`...)
	dst = strconv.AppendInt(dst, int64(c.HaltedUninformed), 10)
	dst = append(dst, `,"HaltBeforeAllInformed":`...)
	dst = strconv.AppendInt(dst, int64(c.HaltBeforeAllInformed), 10)
	dst = append(dst, `,"HelperBeforeAllInformed":`...)
	dst = strconv.AppendInt(dst, int64(c.HelperBeforeAllInformed), 10)
	dst = append(dst, `,"HaltBeforeAllHelpers":`...)
	dst = strconv.AppendInt(dst, int64(c.HaltBeforeAllHelpers), 10)
	return append(dst, '}')
}

// ReadJSON reads c as AppendJSON writes it; r reports any error.
func (c *InvariantCounts) ReadJSON(r *jsonenc.Reader) {
	r.Expect(`{"HaltedUninformed":`)
	c.HaltedUninformed = int(r.Int(strconv.IntSize))
	r.Expect(`,"HaltBeforeAllInformed":`)
	c.HaltBeforeAllInformed = int(r.Int(strconv.IntSize))
	r.Expect(`,"HelperBeforeAllInformed":`)
	c.HelperBeforeAllInformed = int(r.Int(strconv.IntSize))
	r.Expect(`,"HaltBeforeAllHelpers":`)
	c.HaltBeforeAllHelpers = int(r.Int(strconv.IntSize))
	r.Expect("}")
}

// Any reports whether any invariant was violated.
func (c InvariantCounts) Any() bool {
	return c.HaltedUninformed != 0 || c.HaltBeforeAllInformed != 0 ||
		c.HelperBeforeAllInformed != 0 || c.HaltBeforeAllHelpers != 0
}

// Run executes one trial to completion.
func Run(cfg Config) (Metrics, error) {
	var e Executor
	return e.Run(cfg)
}

// Executor is a reusable execution context: one Executor runs many trials
// back to back, recycling the node table, event wheel, network meters,
// and metric buffers, so a steady-state trial allocates only what the
// algorithm's per-trial node constructors need — the slot loop itself
// allocates nothing (pinned by TestSlotLoopAllocFree). The zero value is
// ready to use. An Executor is not safe for concurrent use; the trial
// runner keeps one per worker goroutine.
type Executor struct {
	ex execution
}

// NewExecutor returns an empty Executor. Buffers are grown by the first
// Run and recycled by every Run after it.
func NewExecutor() *Executor { return &Executor{} }

// Run executes one trial to completion, exactly like the package-level
// Run — same validation, same Metrics, bit-identical results — but
// reuses the Executor's buffers across calls.
func (e *Executor) Run(cfg Config) (Metrics, error) {
	if err := e.ex.reset(cfg); err != nil {
		return Metrics{}, err
	}
	return e.ex.run()
}

// transition records a node's status change within one slot.
type transition struct {
	id            int
	before, after protocol.Status
}

// execution is the mutable state of one trial. All slice fields and the
// network are pooled: reset reuses their capacity across trials, which is
// what makes the Executor path allocation-free in steady state.
type execution struct {
	cfg      Config
	alg      protocol.Algorithm
	nodes    []protocol.Node
	sleepers []protocol.Sleeper // per-node Sleeper view, nil where unimplemented
	adv      adversary.Strategy
	adaptive adversary.Adaptive     // non-nil iff adv is adaptive (§8 extension)
	ranged   adversary.RangeSpender // non-nil iff adv supports closed-form range spends
	prefix   adversary.PrefixJammer // non-nil iff adv jams deterministic channel prefixes
	activity []adversary.Activity   // reusable observation buffer

	spanner protocol.ChannelSpanner // non-nil iff alg exposes channel spans

	net       *radio.Network
	mask      *bitset.Set
	remaining int64 // Eve's remaining budget

	active      []int // ids of non-halted nodes
	listeners   []int // ids that listen this slot
	channels    []int // channel per listener, parallel to listeners
	prevStatus  []protocol.Status
	transitions []transition

	sent []int // channels stepSlot registered broadcasts on, one per broadcast

	wheel   *eventWheel        // event engine's calendar, recycled across trials
	awake   []int              // event engine's per-slot wake buffer
	bcasts  []pendingBroadcast // lean step's broadcast buffer
	listens []pendingListen    // lean step's listener buffer
	tally   []chanTally        // lean step's per-channel tally, zero between slots

	// forkBuf is the scratch stream handed to NewNode: seeding it in
	// place is state-identical to root.Fork() without the allocation
	// (nodes copy the Source value per the protocol contract).
	forkBuf rng.Source

	informedCount int
	helperSeen    bool
	haltedCount   int

	metrics Metrics
}

// reset rebuilds the execution for cfg, reusing every buffer whose
// capacity suffices. A fresh execution and a recycled one are
// indistinguishable to the trial: all randomness re-derives from
// cfg.Seed, all meters restart at zero.
func (ex *execution) reset(cfg Config) error {
	if cfg.N < 2 {
		return fmt.Errorf("sim: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.Algorithm == nil {
		return errors.New("sim: Config.Algorithm is required")
	}
	if cfg.Budget < 0 {
		return fmt.Errorf("sim: negative budget %d", cfg.Budget)
	}
	if cfg.Engine > EngineEvent {
		return fmt.Errorf("sim: unknown engine %v", cfg.Engine)
	}
	alg, err := cfg.Algorithm()
	if err != nil {
		return err
	}
	root := rng.New(cfg.Seed)
	advFactory := cfg.Adversary
	if advFactory == nil {
		advFactory = adversary.None()
	}

	ex.cfg = cfg
	ex.alg = alg
	ex.adv = advFactory.New(root.Fork())
	ex.remaining = cfg.Budget
	ex.metrics = Metrics{
		AllInformedSlot: -1,
		FirstHelperSlot: -1,
		FirstHaltSlot:   -1,
	}
	ex.informedCount = 0
	ex.helperSeen = false
	ex.haltedCount = 0

	ex.nodes = growSlice(ex.nodes, cfg.N)
	ex.sleepers = growSlice(ex.sleepers, cfg.N)
	ex.prevStatus = growSlice(ex.prevStatus, cfg.N)
	ex.active = growSlice(ex.active, cfg.N)[:0]
	for id := 0; id < cfg.N; id++ {
		// Seeding the scratch stream from root's next draw is exactly
		// root.Fork() without the allocation; NewNode copies the value.
		ex.forkBuf.Seed(root.Uint64())
		ex.nodes[id] = alg.NewNode(id, id == 0, &ex.forkBuf)
		ex.active = append(ex.active, id)
		if ex.nodes[id].Informed() {
			ex.informedCount++
		}
		ex.sleepers[id], _ = ex.nodes[id].(protocol.Sleeper)
	}
	ex.spanner, _ = alg.(protocol.ChannelSpanner)
	// The paper's theorems assume an oblivious Eve; adaptive strategies
	// (the §8 future-work extension) opt in via the Adaptive interface
	// and receive per-slot channel observations.
	ex.adaptive, _ = ex.adv.(adversary.Adaptive)
	ex.ranged, _ = ex.adv.(adversary.RangeSpender)
	ex.prefix, _ = ex.adv.(adversary.PrefixJammer)
	if ex.net == nil {
		ex.net = radio.NewNetwork(cfg.N, alg.Channels(0))
	} else {
		ex.net.Reset(cfg.N, alg.Channels(0))
	}
	if ex.mask == nil {
		ex.mask = bitset.New(alg.Channels(0))
	} else {
		ex.mask.Reset()
		ex.mask.Grow(alg.Channels(0))
	}
	ex.listeners = growSlice(ex.listeners, cfg.N)[:0]
	ex.channels = growSlice(ex.channels, cfg.N)[:0]
	ex.transitions = growSlice(ex.transitions, cfg.N)[:0]
	return nil
}

// growSlice returns s resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// run dispatches to the selected engine: dense when asked for, the
// event engine otherwise (Auto included). Both produce bit-identical
// Metrics; the dense loop is the reference semantics.
func (ex *execution) run() (Metrics, error) {
	if ex.cfg.Engine == EngineDense {
		return ex.runDense()
	}
	return ex.runEvent()
}

func (ex *execution) maxSlots() int64 {
	if ex.cfg.MaxSlots > 0 {
		return ex.cfg.MaxSlots
	}
	return DefaultMaxSlots
}

func (ex *execution) errMaxSlots(slot int64) error {
	return fmt.Errorf("%w (slot %d, algorithm %s)", ErrMaxSlots, slot, ex.alg.Name())
}

// interrupted reports whether Config.Interrupt has fired (false when the
// channel is nil).
func (ex *execution) interrupted() bool {
	select {
	case <-ex.cfg.Interrupt:
		return true
	default:
		return false
	}
}

func (ex *execution) runDense() (Metrics, error) {
	maxSlots := ex.maxSlots()
	for slot := int64(0); ; slot++ {
		if slot >= maxSlots {
			ex.fillMetrics(slot)
			return ex.metrics, ex.errMaxSlots(slot)
		}
		if slot&(interruptStride-1) == 0 && ex.interrupted() {
			ex.fillMetrics(slot)
			return ex.metrics, ErrInterrupted
		}
		ex.stepSlot(slot, ex.active, true)
		if ex.haltedCount == ex.cfg.N {
			ex.fillMetrics(slot + 1)
			return ex.metrics, nil
		}
	}
}

// stepSlot advances one slot of the execution, stepping exactly the nodes
// in ids. The dense engine passes every non-halted node; the event engine
// passes the awake subset, whose sleeping peers are guaranteed idle and
// transition-free this slot (the protocol.Sleeper contract). ids must be
// in ascending id order. When maintainActive is set, ids must alias
// ex.active, which is rebuilt in place to drop freshly halted nodes.
func (ex *execution) stepSlot(slot int64, ids []int, maintainActive bool) {
	channels := ex.alg.Channels(slot)

	// Eve's jam set is fixed before node actions resolve (obliviousness),
	// truncated to her remaining budget.
	jamCount := 0
	if ex.remaining > 0 {
		ex.mask.Grow(channels)
		// The mask is clean here: it starts clean and is re-cleaned after
		// any slot that set bits, so quiet slots skip the O(channels) wipe.
		jamCount = ex.adv.Fill(slot, channels, ex.mask)
		if int64(jamCount) > ex.remaining {
			jamCount = adversary.Truncate(ex.mask, channels, jamCount, int(ex.remaining))
		}
		ex.remaining -= int64(jamCount)
	}
	var jam *bitset.Set
	if jamCount > 0 {
		jam = ex.mask
		defer ex.mask.Reset()
	}
	ex.net.BeginSlot(slot, channels, jam, jamCount)

	// Phase 1: every broadcast registers before any listen resolves —
	// the model's transmissions are simultaneous within a slot.
	ex.listeners = ex.listeners[:0]
	ex.channels = ex.channels[:0]
	ex.sent = ex.sent[:0]
	for _, id := range ids {
		nd := ex.nodes[id]
		ex.prevStatus[id] = nd.Status()
		act := nd.Step(slot)
		switch act.Kind {
		case protocol.Broadcast:
			ex.net.Broadcast(id, act.Channel, act.Payload)
			ex.sent = append(ex.sent, act.Channel)
		case protocol.Listen:
			ex.listeners = append(ex.listeners, id)
			ex.channels = append(ex.channels, act.Channel)
		}
	}

	// Phase 2: listeners observe the resolved channels.
	for k, id := range ex.listeners {
		fb := ex.net.Listen(id, ex.channels[k])
		ex.nodes[id].Deliver(fb)
	}
	ex.net.EndSlot()

	// An adaptive Eve senses every channel's activity after the slot.
	if ex.adaptive != nil {
		ex.observe(slot, channels, jam, jamCount)
	}

	// Phase 3: end-of-slot bookkeeping and status transitions.
	ex.transitions = ex.transitions[:0]
	if maintainActive {
		// ids aliases ex.active; the rebuild writes behind the read
		// cursor, so the in-place filter is safe.
		out := ex.active[:0]
		for _, id := range ids {
			nd := ex.nodes[id]
			nd.EndSlot(slot)
			after := nd.Status()
			if before := ex.prevStatus[id]; after != before {
				ex.transitions = append(ex.transitions, transition{id: id, before: before, after: after})
			}
			if after != protocol.Halted {
				out = append(out, id)
			}
		}
		ex.active = out
	} else {
		for _, id := range ids {
			nd := ex.nodes[id]
			nd.EndSlot(slot)
			after := nd.Status()
			if before := ex.prevStatus[id]; after != before {
				ex.transitions = append(ex.transitions, transition{id: id, before: before, after: after})
			}
		}
	}

	// Informedness first: all of this slot's transitions count as
	// simultaneous, matching the lemmas' "by the end of the iteration".
	for _, tr := range ex.transitions {
		if tr.before == protocol.Uninformed && ex.nodes[tr.id].Informed() {
			ex.informedCount++
		}
	}
	if ex.informedCount == ex.cfg.N && ex.metrics.AllInformedSlot < 0 {
		ex.metrics.AllInformedSlot = slot + 1
	}
	// Then the helper/halt events and their safety invariants.
	for _, tr := range ex.transitions {
		ex.noteTransition(tr, slot)
	}

	if ex.cfg.Observer != nil {
		ex.cfg.Observer.Slot(slot, channels, jamCount, len(ex.listeners), len(ex.sent), ex.informedCount, ex.haltedCount)
	}
}

// observe reports the slot's per-channel activity to an adaptive Eve:
// Jammed where she jammed, otherwise Quiet, Delivered or Collided by the
// channel's broadcaster count. It builds the slice from the slot's
// broadcasts (ex.sent) and the jam mask's jamCount set bits (jamCount
// counts the mask's bits below channels, as BeginSlot requires), so it
// asks the network nothing per channel.
func (ex *execution) observe(slot int64, channels int, jam *bitset.Set, jamCount int) {
	if cap(ex.activity) < channels {
		ex.activity = make([]adversary.Activity, channels)
	}
	act := ex.activity[:channels]
	clear(act) // Quiet is the zero Activity
	for _, ch := range ex.sent {
		if act[ch] == adversary.Quiet {
			act[ch] = adversary.Delivered
		} else {
			act[ch] = adversary.Collided
		}
	}
	for ch, left := 0, jamCount; left > 0 && ch < channels; ch++ {
		if jam.Test(ch) {
			act[ch] = adversary.Jammed
			left--
		}
	}
	ex.adaptive.Observe(slot, act)
}

// noteTransition updates event metrics and audits the safety invariants.
func (ex *execution) noteTransition(tr transition, slot int64) {
	switch tr.after {
	case protocol.Helper:
		ex.helperSeen = true
		if ex.metrics.FirstHelperSlot < 0 {
			ex.metrics.FirstHelperSlot = slot + 1
		}
		if ex.informedCount < ex.cfg.N {
			ex.metrics.Invariants.HelperBeforeAllInformed++
		}
	case protocol.Halted:
		ex.haltedCount++
		if ex.metrics.FirstHaltSlot < 0 {
			ex.metrics.FirstHaltSlot = slot + 1
		}
		if !ex.nodes[tr.id].Informed() {
			ex.metrics.Invariants.HaltedUninformed++
		}
		if ex.informedCount < ex.cfg.N {
			ex.metrics.Invariants.HaltBeforeAllInformed++
		}
		// Lemma 6.5: in helper-capable algorithms, a halt implies every
		// node has progressed to helper (or halted) by this slot's end.
		if tr.before == protocol.Helper && !ex.allReachedHelper() {
			ex.metrics.Invariants.HaltBeforeAllHelpers++
		}
	}
}

// allReachedHelper reports whether every node is Helper or Halted.
func (ex *execution) allReachedHelper() bool {
	for _, nd := range ex.nodes {
		if s := nd.Status(); s != protocol.Helper && s != protocol.Halted {
			return false
		}
	}
	return true
}

func (ex *execution) fillMetrics(slots int64) {
	ex.metrics.Slots = slots
	energies := ex.net.NodeEnergies()
	var sum int64
	for _, e := range energies {
		sum += e
		if e > ex.metrics.MaxNodeEnergy {
			ex.metrics.MaxNodeEnergy = e
		}
	}
	ex.metrics.SourceEnergy = energies[0]
	ex.metrics.MeanNodeEnergy = float64(sum) / float64(len(energies))
	ex.metrics.EveEnergy = ex.net.EveEnergy()
	for _, nd := range ex.nodes {
		hp, ok := nd.(helperPhaser)
		if !ok {
			continue
		}
		// Halted MultiCastAdv nodes necessarily passed through helper;
		// active helpers report directly. Nodes that never reached
		// helper have no recorded phase.
		if s := nd.Status(); s != protocol.Helper && s != protocol.Halted {
			continue
		}
		_, j := hp.HelperPhase()
		if j < 0 {
			continue
		}
		if j > MaxHelperJBucket {
			j = MaxHelperJBucket
		}
		ex.metrics.HelperJCounts[j]++
	}
}

// Statistical replication (parallel seeded trials, sharding, streaming
// sinks) lives in multicast/internal/runner, which builds on Run and the
// Interrupt hook; package sim deliberately contains no batch machinery,
// so one execution stays the engine's only unit of work.
