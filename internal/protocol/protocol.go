// Package protocol defines the interface between the simulation engine and
// the broadcast algorithms. Algorithms are synchronous state machines: in
// every slot each active node chooses an action (idle, listen, broadcast),
// the shared medium resolves, listeners receive feedback, and the node
// performs end-of-slot bookkeeping (counter updates, iteration-boundary
// termination checks, status transitions).
package protocol

import (
	"fmt"

	"multicast/internal/radio"
	"multicast/internal/rng"
)

// Kind enumerates the per-slot choices the model offers a node.
type Kind uint8

const (
	// Idle costs nothing and observes nothing.
	Idle Kind = iota
	// Listen observes one channel for one energy unit.
	Listen
	// Broadcast transmits on one channel for one energy unit, with no
	// feedback to the broadcaster.
	Broadcast
)

// String returns a human-readable action kind.
func (k Kind) String() string {
	switch k {
	case Idle:
		return "idle"
	case Listen:
		return "listen"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Action is a node's choice for one slot. Channel is 0-based and must be
// below the schedule's channel count for the slot; it is ignored for Idle.
// Payload is used only for Broadcast.
type Action struct {
	Kind    Kind
	Channel int
	Payload radio.Payload
}

// Status is a node's protocol state, following the paper's terminology.
// MultiCastCore and MultiCast only use Uninformed/Informed/Halted;
// MultiCastAdv adds the intermediate Helper stage.
type Status uint8

const (
	// Uninformed nodes do not yet know the message m.
	Uninformed Status = iota
	// Informed nodes know m and participate in dissemination.
	Informed
	// Helper nodes (MultiCastAdv) know m, have passed the helper checks,
	// and are waiting for a quiet phase to halt.
	Helper
	// Halted nodes have terminated and take no further actions.
	Halted
)

// String returns the paper's name for the status.
func (s Status) String() string {
	switch s {
	case Uninformed:
		return "uninformed"
	case Informed:
		return "informed"
	case Helper:
		return "helper"
	case Halted:
		return "halted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Node is one honest node's protocol state machine. The engine calls, in
// slot order: Step (once, while not halted), then Deliver (iff Step chose
// Listen), then EndSlot (once). After EndSlot returns, the engine reads
// Status() to detect halting and status transitions.
type Node interface {
	// Step returns the node's action for the given slot.
	Step(slot int64) Action
	// Deliver hands the node the feedback for its Listen in this slot.
	Deliver(fb radio.Feedback)
	// EndSlot finishes the slot; termination and status changes happen here.
	EndSlot(slot int64)
	// Status returns the node's current protocol state.
	Status() Status
	// Informed reports whether the node knows the message m (true for
	// Informed, Helper, and for Halted nodes that knew m when halting).
	Informed() bool
}

// Sleeper is an optional Node extension that lets the event engine skip
// the node's idle slots. NextActive returns the next slot ≥ now at which the node
// needs to be stepped — the next slot where Step would return a non-Idle
// action, or where EndSlot's bookkeeping could change Status().
//
// Randomness discipline (gap draws): the protocols are memoryless inside
// a step window — each slot is an i.i.d. Bernoulli(q) choice to act — so
// implementations pre-draw the *gap* to their next action as one
// closed-form geometric sample (rng.Source.Geometric) instead of flipping
// one coin per slot. A gap that would cross a window/iteration boundary
// is truncated there and redrawn under the new window's rate after the
// boundary's bookkeeping, which is distribution-exact by memorylessness.
// Idle slots therefore consume no randomness at all: Step returns Idle
// without touching the stream, and a node's private stream advances only
// at gap-draw points (node creation, after an action's EndSlot, and at
// absorbed boundaries) and at action slots (action kind and channel).
// Both engines run this same node code, so dense and event executions
// consume each node's stream identically by construction.
//
// Contract:
//
//   - The engine calls NextActive(now) only when the node has fully
//     processed every slot < now (Step/Deliver/EndSlot or a previous
//     NextActive fast-forward) and only while the node is not Halted.
//   - The returned slot s satisfies s ≥ now. The engine will then call
//     Step(s), possibly Deliver, and EndSlot(s) as usual; the node must
//     behave at s exactly as if it had been stepped through (now, s)
//     slot by slot — in particular, boundary bookkeeping (and its gap
//     redraws) for absorbed boundaries happens inside NextActive, in the
//     same stream order the dense per-slot path produces via EndSlot.
//   - Status() must remain constant and accurate throughout the sleep:
//     any slot whose end-of-slot bookkeeping would change the status
//     (halting at an iteration boundary, helper transitions, …) must be
//     returned as a wake slot, not absorbed, even if Step is Idle there.
type Sleeper interface {
	// NextActive fast-forwards the node through idle slots starting at
	// now and returns the first slot that needs engine attention.
	NextActive(now int64) int64
}

// Algorithm builds the per-node state machines for one execution and
// exposes the channel schedule. All algorithms in the paper are
// channel-uniform (Section 7): the set of channels potentially in use in a
// slot is the same for every active node and depends only on the slot
// index, so the engine and the (oblivious) adversary may query it without
// observing the execution.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// NewNode returns the state machine for node id. Exactly one node per
	// execution is the source. r is the node's private random stream; the
	// pointer is only valid during the call — implementations must copy
	// the Source value (the caller may reuse the backing storage for the
	// next node's stream).
	NewNode(id int, source bool, r *rng.Source) Node
	// Channels returns the number of channels the algorithm may use in
	// the given slot (≥ 1).
	Channels(slot int64) int
}

// ChannelSpanner is an optional Algorithm extension used by the event
// engine. ChannelSpan returns the channel count at slot together with the
// first later slot at which the count may change, so that a skipped slot
// range can be charged to the adversary in constant-channel chunks instead
// of one Channels query per slot. until must be > slot; math.MaxInt64
// means "constant forever". Returning a conservative (smaller) until is
// always correct.
type ChannelSpanner interface {
	// ChannelSpan reports the channel count for [slot, until).
	ChannelSpan(slot int64) (channels int, until int64)
}
