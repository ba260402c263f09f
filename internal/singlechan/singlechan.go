// Package singlechan implements the single-channel resource-competitive
// broadcast baseline the paper compares against: Gilbert, King, Pettie,
// Porat, Saia and Young, "(Near) Optimal Resource-competitive Broadcast
// with Jamming", SPAA 2014 — Õ(T + n) time and Õ(√(T/n) + 1) energy per
// node, on one channel.
//
// The authors' implementation is unavailable, so this package provides a
// protocol with the same structure and the same asymptotic shape (which is
// what the paper's comparison uses):
//
//   - Execution proceeds in epochs i = i₀, i₀+1, … of geometrically growing
//     length Lᵢ = ⌈A·4ⁱ·lg n⌉, with i₀ = ⌈lg₄ n⌉ so that L_{i₀} = Ω(n·lg n).
//   - In epoch i every informed node broadcasts in each slot with
//     probability bᵢ = min(1/2, √(lg n / (n·Lᵢ))). Aggregate broadcast load
//     is therefore ≤ n·bᵢ = √(n·lg n/Lᵢ) ≤ 1 expected broadcasters per
//     slot, so single transmissions get through. Every node listens with
//     probability lᵢ = ListenBoost·bᵢ; each success is heard by ≈ n·lᵢ
//     listeners at once, which multiplies the informed set by
//     (1 + Θ(lg n)) per epoch.
//   - Per-node cost per epoch is ≈ 2Lᵢlᵢ = Θ(√(Lᵢ·lg n/n)); summed over
//     epochs up to the one that out-lasts Eve (Lᵢ ≈ T̂) this telescopes to
//     Θ(√(T̂/n)·lg n) — the [GKPPSY14] energy bound.
//   - Termination mirrors the paper's noisy-slot criterion: an informed
//     node halts at an epoch end iff it observed fewer than HaltNoise·Lᵢlᵢ
//     noisy slots. Eve must keep the noise fraction above that constant,
//     which on one channel costs her Θ(Lᵢ) per blocked epoch, forcing Θ(T)
//     time but no more — the Õ(T + n) bound.
//
// Scope note: this package reproduces [GKPPSY14]'s time/energy *shape*,
// which is what the paper's §1 comparison cites. The original's full Monte
// Carlo termination analysis (their analogue of Lemma 4.2) is not
// reproduced; under some adversaries an informed node may rarely halt an
// epoch before the last straggler hears m. Stragglers still get informed:
// halting requires a quiet epoch, and a quiet channel delivers.
package singlechan

import (
	"fmt"
	"math"

	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

// Params holds the baseline's tunable constants.
type Params struct {
	// A scales the epoch length Lᵢ = ⌈A·4ⁱ·lg n⌉.
	A float64
	// HaltNoise: halt at an epoch end iff Nn < HaltNoise·Lᵢ·lᵢ (and the
	// node already knows m — a broadcast node cannot deliver without it).
	HaltNoise float64
	// ListenBoost multiplies lᵢ. The √(lg n/(n·Lᵢ)) base rate gives only
	// Θ(lg n) listens per epoch; early epochs need a constant boost so
	// the noisy-slot counter concentrates (the [GKPPSY14] "sufficiently
	// large" constants play the same role).
	ListenBoost float64
}

// DefaultParams returns simulation-scale constants analogous to core.Sim().
func DefaultParams() Params {
	return Params{A: 1, HaltNoise: 0.3, ListenBoost: 4}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.A <= 0 {
		return fmt.Errorf("singlechan: A = %v must be positive", p.A)
	}
	if !(p.HaltNoise > 0 && p.HaltNoise < 1) {
		return fmt.Errorf("singlechan: HaltNoise = %v out of (0, 1)", p.HaltNoise)
	}
	if p.ListenBoost <= 0 {
		return fmt.Errorf("singlechan: ListenBoost = %v must be positive", p.ListenBoost)
	}
	return nil
}

// maxEpoch caps the epoch index so Lᵢ stays inside int64.
const maxEpoch = 28

// Broadcast is the single-channel baseline algorithm.
type Broadcast struct {
	params Params
	n      int
	start  int
}

// New builds the baseline for n nodes (power of two ≥ 2, matching the
// assumption shared with the multi-channel algorithms).
func New(params Params, n int) (*Broadcast, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("singlechan: n = %d must be a power of two ≥ 2", n)
	}
	// i₀ = ⌈lg₄ n⌉ so the first epoch has length Ω(n·lg n).
	start := int(math.Ceil(math.Log2(float64(n)) / 2))
	if start < 1 {
		start = 1
	}
	return &Broadcast{params: params, n: n, start: start}, nil
}

// Name implements protocol.Algorithm.
func (a *Broadcast) Name() string { return "SingleChannel[GKPPSY14-shape]" }

// Channels implements protocol.Algorithm: always exactly one.
func (a *Broadcast) Channels(slot int64) int { return 1 }

// ChannelSpan implements protocol.ChannelSpanner: always one channel.
func (a *Broadcast) ChannelSpan(slot int64) (int, int64) {
	return 1, math.MaxInt64
}

// StartEpoch returns i₀.
func (a *Broadcast) StartEpoch() int { return a.start }

// EpochLength returns Lᵢ.
func (a *Broadcast) EpochLength(i int) int64 {
	if i > maxEpoch {
		i = maxEpoch
	}
	lgn := math.Log2(float64(a.n))
	if lgn < 1 {
		lgn = 1
	}
	v := int64(math.Ceil(a.params.A * math.Exp2(2*float64(i)) * lgn))
	if v < 1 {
		v = 1
	}
	return v
}

// BroadcastProb returns bᵢ = min(1/2, √(lg n/(n·Lᵢ))).
func (a *Broadcast) BroadcastProb(i int) float64 {
	lgn := math.Log2(float64(a.n))
	if lgn < 1 {
		lgn = 1
	}
	b := math.Sqrt(lgn / (float64(a.n) * float64(a.EpochLength(i))))
	if b > 0.5 {
		b = 0.5
	}
	return b
}

// ListenProb returns lᵢ = min(1/2, ListenBoost·bᵢ).
func (a *Broadcast) ListenProb(i int) float64 {
	l := a.params.ListenBoost * a.BroadcastProb(i)
	if l > 0.5 {
		l = 0.5
	}
	return l
}

// NewNode implements protocol.Algorithm. Per the protocol contract, the
// node copies *r; the pointer is not retained.
func (a *Broadcast) NewNode(id int, source bool, r *rng.Source) protocol.Node {
	nd := &node{alg: a, r: *r}
	if source {
		nd.status = protocol.Informed
		nd.knowsM = true
	}
	nd.startEpoch(a.start)
	return nd
}

// node is one node's baseline state machine.
type node struct {
	alg     *Broadcast
	r       rng.Source
	status  protocol.Status
	knowsM  bool
	epoch   int
	length  int64
	lp, bp  float64 // lᵢ and bᵢ
	lnl     float64 // ln(1−lᵢ): the uninformed gap rate's hoisted Log1p
	lnlb    float64 // ln(1−lᵢ−bᵢ): the informed gap rate's hoisted Log1p
	lfrac   float64 // P(listen | act) = lᵢ/(lᵢ+bᵢ) for informed nodes
	haltMax float64
	noisy   int64
	slotIdx int64

	// nextIdx is the epoch index of the node's next action slot,
	// pre-drawn as one geometric gap; length is the sentinel for "idle
	// until the epoch boundary".
	nextIdx int64
}

func (nd *node) startEpoch(i int) {
	nd.epoch = i
	nd.length = nd.alg.EpochLength(i)
	nd.lp = nd.alg.ListenProb(i)
	nd.bp = nd.alg.BroadcastProb(i)
	nd.lnl = math.Log1p(-nd.lp)
	nd.lnlb = math.Log1p(-(nd.lp + nd.bp))
	nd.lfrac = nd.lp / (nd.lp + nd.bp)
	nd.haltMax = nd.alg.params.HaltNoise * nd.lp * float64(nd.length)
	nd.noisy = 0
	nd.slotIdx = 0
	nd.drawGap()
}

// drawGap draws the geometric gap to the node's next action slot at the
// epoch's rate — lᵢ to listen, plus bᵢ to broadcast when informed. The
// status cannot change before the action slot (Deliver requires
// listening), so the rate is a gap invariant; gaps truncate at the epoch
// boundary, where startEpoch redraws under the next epoch's rates. Both
// rates' logarithms are hoisted into startEpoch: GeometricCappedLn is
// bit-identical to GeometricCapped for the same rate.
func (nd *node) drawGap() {
	lnq := nd.lnl
	if nd.status == protocol.Informed {
		lnq = nd.lnlb
	}
	nd.nextIdx = nd.slotIdx + nd.r.GeometricCappedLn(lnq, nd.length-nd.slotIdx)
}

func (nd *node) Status() protocol.Status { return nd.status }

func (nd *node) Informed() bool { return nd.knowsM }

// Epoch returns the node's current epoch index (test hook).
func (nd *node) Epoch() int { return nd.epoch }

// Step returns Idle without consuming randomness until the pre-drawn
// action slot, where informed nodes split listen/broadcast as lᵢ : bᵢ.
func (nd *node) Step(slot int64) protocol.Action {
	if nd.slotIdx != nd.nextIdx || nd.status == protocol.Halted {
		return protocol.Action{Kind: protocol.Idle}
	}
	if nd.status == protocol.Informed && !nd.r.Bernoulli(nd.lfrac) {
		return protocol.Action{Kind: protocol.Broadcast, Channel: 0, Payload: radio.MsgM}
	}
	return protocol.Action{Kind: protocol.Listen, Channel: 0}
}

func (nd *node) Deliver(fb radio.Feedback) {
	switch fb.Status {
	case radio.Noise:
		nd.noisy++
	case radio.Message:
		if fb.Payload == radio.MsgM {
			nd.status = protocol.Informed
			nd.knowsM = true
		}
	}
}

func (nd *node) EndSlot(slot int64) {
	if nd.status == protocol.Halted {
		return
	}
	acted := nd.slotIdx == nd.nextIdx
	nd.slotIdx++
	if nd.slotIdx >= nd.length {
		// Halt requires low noise (jamming has stopped) AND possession of
		// m (a broadcast node terminates by delivering the message).
		if nd.status == protocol.Informed && float64(nd.noisy) < nd.haltMax {
			nd.status = protocol.Halted
			return
		}
		nd.startEpoch(nd.epoch + 1)
		return
	}
	if acted {
		nd.drawGap()
	}
}

// NextActive implements protocol.Sleeper; see the multi-channel nodes.
// The next action slot is pre-drawn, so fast-forwarding is cursor
// arithmetic: jump to it, wake at the epoch's final slot when its
// boundary would halt (only an informed node below the frozen noise
// threshold can), and otherwise absorb the boundary with the same
// bookkeeping — including the gap redraw — as EndSlot.
func (nd *node) NextActive(now int64) int64 {
	for {
		if nd.nextIdx < nd.length {
			now += nd.nextIdx - nd.slotIdx
			nd.slotIdx = nd.nextIdx
			return now
		}
		if nd.status == protocol.Informed && float64(nd.noisy) < nd.haltMax {
			now += nd.length - 1 - nd.slotIdx
			nd.slotIdx = nd.length - 1
			return now
		}
		now += nd.length - nd.slotIdx
		nd.startEpoch(nd.epoch + 1)
	}
}
