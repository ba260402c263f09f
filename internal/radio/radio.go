// Package radio implements the paper's communication model (Section 3):
// a synchronous, single-hop, multi-channel radio network.
//
// Per slot, per channel:
//
//   - no broadcaster and no jamming        → every listener detects silence;
//   - exactly one broadcaster, no jamming  → every listener receives the message;
//   - ≥2 broadcasters, or jamming, or both → every listener hears noise.
//
// Listeners cannot distinguish collision noise from jamming noise, and
// broadcasters get no feedback about channel status. Broadcasting or
// listening on one channel for one slot costs the node one unit of energy;
// jamming one channel for one slot costs Eve one unit. Idling is free.
// All energy metering in the simulator happens in this package so that the
// resource-competitive ratios reported by the experiment harness are
// audited in exactly one place.
package radio

import (
	"fmt"

	"multicast/internal/bitset"
)

// Status is what a listener observes on a channel.
type Status uint8

const (
	// Silence: nobody broadcast and Eve did not jam.
	Silence Status = iota
	// Message: exactly one broadcaster and no jamming; the payload is
	// delivered intact.
	Message
	// Noise: a collision (≥2 broadcasters) or jamming or both.
	Noise
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Silence:
		return "silence"
	case Message:
		return "message"
	case Noise:
		return "noise"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Payload identifies what a node broadcasts. The broadcast problem carries
// a single message m; MultiCastAdv additionally uses a special beacon "±"
// broadcast by uninformed nodes in step two (Figure 4).
type Payload uint8

const (
	// None is the zero Payload; it is never transmitted.
	None Payload = iota
	// MsgM is the broadcast message m.
	MsgM
	// Beacon is the special beacon message ± of MultiCastAdv.
	Beacon
)

// String returns a human-readable payload name.
func (p Payload) String() string {
	switch p {
	case None:
		return "none"
	case MsgM:
		return "m"
	case Beacon:
		return "±"
	default:
		return fmt.Sprintf("Payload(%d)", uint8(p))
	}
}

// Feedback is what a listening node learns at the end of a slot.
type Feedback struct {
	Status Status
	// Payload is the received message when Status == Message, None otherwise.
	Payload Payload
}

// chanState is per-channel slot-stamped occupancy. Stamping avoids clearing
// every channel every slot: a channel whose stamp differs from the current
// slot is empty.
type chanState struct {
	stamp   int64
	count   int32
	payload Payload
}

// Network is the shared medium for one execution. It is not safe for
// concurrent use; the simulation engine drives it from a single goroutine
// (trial-level parallelism lives above this layer).
type Network struct {
	channels int
	states   []chanState
	slot     int64
	inSlot   bool
	jam      *bitset.Set // jam mask for the current slot (nil → no jamming)

	nodeEnergy []int64
	eveEnergy  int64

	// Slot-level tallies for tests and traces.
	broadcastsThisSlot int
	listensThisSlot    int
}

// NewNetwork returns a network with meters for n nodes and capacity for
// channels channels. Capacity grows on demand (MultiCastAdv increases its
// channel count as epochs proceed).
func NewNetwork(n, channels int) *Network {
	if n <= 0 {
		panic("radio: network needs at least one node")
	}
	if channels < 1 {
		channels = 1
	}
	states := make([]chanState, channels)
	for i := range states {
		states[i].stamp = -1
	}
	return &Network{
		channels:   channels,
		states:     states,
		slot:       -1,
		nodeEnergy: make([]int64, n),
	}
}

// Channels returns the current channel capacity.
func (nw *Network) Channels() int { return nw.channels }

// Slot returns the index of the slot currently in progress (or the last
// completed slot if none is in progress).
func (nw *Network) Slot() int64 { return nw.slot }

// NodeEnergy returns the total energy spent so far by node id.
func (nw *Network) NodeEnergy(id int) int64 { return nw.nodeEnergy[id] }

// NodeEnergies returns the per-node energy meter slice (not a copy).
func (nw *Network) NodeEnergies() []int64 { return nw.nodeEnergy }

// EveEnergy returns the total energy Eve has spent jamming.
func (nw *Network) EveEnergy() int64 { return nw.eveEnergy }

// ChargeEve adds amount to Eve's energy meter without running a slot. The
// event engine uses it to account for jamming in slot ranges it skips:
// no node listens there, so the jam sets are unobservable, but Eve still
// pays for them. amount must be ≥ 0.
func (nw *Network) ChargeEve(amount int64) {
	if amount < 0 {
		panic("radio: negative Eve charge")
	}
	nw.eveEnergy += amount
}

// ChargeNode adds one unit to node id's energy meter without running a
// slot. The event engine's lean step resolves channel outcomes itself —
// outside BeginSlot/EndSlot — but all energy metering still lands here,
// so the competitive ratios stay audited in one place.
func (nw *Network) ChargeNode(id int) {
	if id < 0 || id >= len(nw.nodeEnergy) {
		chargeNodePanic(id)
	}
	nw.nodeEnergy[id]++
}

// chargeNodePanic is split out so ChargeNode stays inlinable on the
// engines' hot path.
func chargeNodePanic(id int) {
	panic(fmt.Sprintf("radio: node id %d out of range", id))
}

// Reset returns the network to its just-constructed state while keeping
// its allocations, so a pooled execution (sim.Executor) can reuse one
// network across trials. The channel-state slice keeps its full length —
// grow() treats len(states) as the capacity, so shrinking the visible
// slice would forfeit it — and the stamps are rewound instead, an
// O(capacity) cost paid once per trial, never per slot.
func (nw *Network) Reset(n, channels int) {
	if n <= 0 {
		panic("radio: network needs at least one node")
	}
	if channels < 1 {
		channels = 1
	}
	if channels > len(nw.states) {
		nw.states = make([]chanState, channels)
	}
	for i := range nw.states {
		nw.states[i] = chanState{stamp: -1}
	}
	nw.channels = channels
	if n <= cap(nw.nodeEnergy) {
		nw.nodeEnergy = nw.nodeEnergy[:n]
		clear(nw.nodeEnergy)
	} else {
		nw.nodeEnergy = make([]int64, n)
	}
	nw.slot = -1
	nw.inSlot = false
	nw.jam = nil
	nw.eveEnergy = 0
	nw.broadcastsThisSlot = 0
	nw.listensThisSlot = 0
}

// grow ensures capacity for at least channels channels.
func (nw *Network) grow(channels int) {
	if channels <= len(nw.states) {
		nw.channels = max(nw.channels, channels)
		return
	}
	states := make([]chanState, channels)
	copy(states, nw.states)
	for i := len(nw.states); i < channels; i++ {
		states[i].stamp = -1
	}
	nw.states = states
	nw.channels = channels
}

// BeginSlot starts slot number slot using the given number of channels and
// jam mask. jam may be nil (no jamming); otherwise only bits < channels are
// honoured, and Eve is charged one unit per jammed channel. jamCount must
// equal jam.CountRange(channels); it is passed in because the engine has
// already computed it while enforcing Eve's budget.
//
// Slots must begin in strictly increasing order.
func (nw *Network) BeginSlot(slot int64, channels int, jam *bitset.Set, jamCount int) {
	if nw.inSlot {
		panic("radio: BeginSlot called while a slot is in progress")
	}
	if slot <= nw.slot {
		panic(fmt.Sprintf("radio: slot %d does not advance past %d", slot, nw.slot))
	}
	if channels < 1 {
		panic("radio: slot needs at least one channel")
	}
	nw.grow(channels)
	nw.slot = slot
	nw.inSlot = true
	nw.jam = jam
	nw.eveEnergy += int64(jamCount)
	nw.broadcastsThisSlot = 0
	nw.listensThisSlot = 0
}

// EndSlot finishes the slot in progress.
func (nw *Network) EndSlot() {
	if !nw.inSlot {
		panic("radio: EndSlot without BeginSlot")
	}
	nw.inSlot = false
	nw.jam = nil
}

// Broadcast transmits payload on channel ch (0-based) on behalf of node id.
// The broadcaster learns nothing about the channel. Costs one energy unit.
func (nw *Network) Broadcast(id, ch int, payload Payload) {
	nw.checkAccess(id, ch)
	if payload == None {
		panic("radio: cannot broadcast the None payload")
	}
	st := &nw.states[ch]
	if st.stamp != nw.slot {
		st.stamp = nw.slot
		st.count = 1
		st.payload = payload
	} else {
		st.count++
	}
	nw.nodeEnergy[id]++
	nw.broadcastsThisSlot++
}

// Listen observes channel ch on behalf of node id and returns the feedback
// defined by the model. Costs one energy unit. All broadcasts for the slot
// must be registered before any listen; the engine guarantees this order.
func (nw *Network) Listen(id, ch int) Feedback {
	nw.checkAccess(id, ch)
	nw.nodeEnergy[id]++
	nw.listensThisSlot++
	if nw.jam != nil && ch < nw.jam.Len() && nw.jam.Test(ch) {
		return Feedback{Status: Noise}
	}
	st := &nw.states[ch]
	if st.stamp != nw.slot || st.count == 0 {
		return Feedback{Status: Silence}
	}
	if st.count == 1 {
		return Feedback{Status: Message, Payload: st.payload}
	}
	return Feedback{Status: Noise}
}

func (nw *Network) checkAccess(id, ch int) {
	if !nw.inSlot {
		panic("radio: channel access outside a slot")
	}
	if id < 0 || id >= len(nw.nodeEnergy) {
		panic(fmt.Sprintf("radio: node id %d out of range", id))
	}
	if ch < 0 || ch >= nw.channels {
		panic(fmt.Sprintf("radio: channel %d out of range [0,%d)", ch, nw.channels))
	}
}

// SlotActivity reports the number of broadcasts and listens registered in
// the current slot. Test/trace helper.
func (nw *Network) SlotActivity() (broadcasts, listens int) {
	return nw.broadcastsThisSlot, nw.listensThisSlot
}
