package core

import (
	"math"

	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

// maxIter caps the iteration index so Rᵢ = Θ(i·4ⁱ) stays well inside int64.
// Iteration 28 alone is ~10¹⁸ slots; reaching the cap means the run was
// unbounded for other reasons and the engine's MaxSlots valve fires first.
const maxIter = 28

// MultiCast is the paper's Figure 2 algorithm: MultiCastCore with growing
// iterations (Rᵢ = ⌈A·i·4ⁱ·lgᴸn⌉) and shrinking probabilities (pᵢ = 2⁻ⁱ),
// which removes the need to know T and improves energy competitiveness to
// O(√(T/n)·√lgT·lgn + lg²n). A node halts at the end of iteration i iff it
// observed fewer than HaltRatio·Rᵢ·pᵢ noisy slots.
type MultiCast struct {
	params   Params
	n        int
	channels int
}

// NewMultiCast builds the algorithm for n nodes (power of two ≥ 2).
func NewMultiCast(params Params, n int) (*MultiCast, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateN(n); err != nil {
		return nil, err
	}
	return &MultiCast{params: params, n: n, channels: maxInt(n/params.channelDiv(), 1)}, nil
}

// Name implements protocol.Algorithm.
func (a *MultiCast) Name() string { return "MultiCast" }

// Channels implements protocol.Algorithm: n/ChannelDiv (paper: n/2) in
// every slot.
func (a *MultiCast) Channels(slot int64) int { return a.channels }

// ChannelSpan implements protocol.ChannelSpanner: the count never changes.
func (a *MultiCast) ChannelSpan(slot int64) (int, int64) {
	return a.channels, math.MaxInt64
}

// IterationLength returns Rᵢ for iteration i.
func (a *MultiCast) IterationLength(i int) int64 {
	if i > maxIter {
		i = maxIter
	}
	return ceilPos(a.params.A * float64(i) * math.Exp2(2*float64(i)) * lgPow(a.n, a.params.LogPow))
}

// ListenProb returns pᵢ = 2⁻ⁱ for iteration i.
func (a *MultiCast) ListenProb(i int) float64 {
	if i > maxIter {
		i = maxIter
	}
	return math.Exp2(-float64(i))
}

// NewNode implements protocol.Algorithm. Per the protocol contract, the
// node copies *r; the pointer is not retained.
func (a *MultiCast) NewNode(id int, source bool, r *rng.Source) protocol.Node {
	nd := &mcastNode{alg: a, r: *r}
	if source {
		nd.status = protocol.Informed
		nd.knowsM = true
	}
	nd.startIteration(a.params.StartIter)
	return nd
}

// mcastNode is one node's MultiCast state machine.
type mcastNode struct {
	alg     *MultiCast
	r       rng.Source
	status  protocol.Status
	knowsM  bool
	iter    int     // current iteration index i
	iterLen int64   // Rᵢ
	p       float64 // pᵢ
	lnq     float64 // ln(1−pᵢ): the uninformed gap rate's hoisted Log1p
	lnq2    float64 // ln(1−2pᵢ): the informed gap rate's hoisted Log1p
	haltMax float64 // halt iff Nn < haltMax at iteration end
	noisy   int64   // Nn
	slotIdx int64   // slot within the iteration

	// nextIdx is the iteration index of the node's next action slot,
	// pre-drawn as one geometric gap; iterLen is the sentinel for "idle
	// until the iteration boundary".
	nextIdx int64
}

func (nd *mcastNode) startIteration(i int) {
	nd.iter = i
	nd.iterLen = nd.alg.IterationLength(i)
	nd.p = nd.alg.ListenProb(i)
	nd.lnq = math.Log1p(-nd.p)
	nd.lnq2 = math.Log1p(-(nd.p * 2))
	nd.haltMax = nd.alg.params.HaltRatio * nd.p * float64(nd.iterLen)
	nd.noisy = 0
	nd.slotIdx = 0
	nd.drawGap()
}

// drawGap draws the geometric gap to the node's next action slot at the
// current iteration's rate — pᵢ to listen, plus pᵢ to broadcast when
// informed; see coreNode.drawGap. Gaps truncate at the iteration
// boundary, where startIteration redraws under the new pᵢ₊₁. The rate's
// logarithm is hoisted into startIteration: GeometricCappedLn
// draws bit-identically to min(Geometric(p), limit) for the same rate.
func (nd *mcastNode) drawGap() {
	lnq := nd.lnq
	if nd.status == protocol.Informed {
		lnq = nd.lnq2
	}
	nd.nextIdx = nd.slotIdx + nd.r.GeometricCappedLn(lnq, nd.iterLen-nd.slotIdx)
}

func (nd *mcastNode) Status() protocol.Status { return nd.status }

func (nd *mcastNode) Informed() bool { return nd.knowsM }

// Step returns Idle without consuming randomness until the pre-drawn
// action slot; see coreNode.Step.
func (nd *mcastNode) Step(slot int64) protocol.Action {
	if nd.slotIdx != nd.nextIdx || nd.status == protocol.Halted {
		return protocol.Action{Kind: protocol.Idle}
	}
	if nd.status == protocol.Informed && nd.r.Bernoulli(0.5) {
		return protocol.Action{Kind: protocol.Broadcast, Channel: nd.r.Intn(nd.alg.channels), Payload: radio.MsgM}
	}
	return protocol.Action{Kind: protocol.Listen, Channel: nd.r.Intn(nd.alg.channels)}
}

func (nd *mcastNode) Deliver(fb radio.Feedback) {
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

func (nd *mcastNode) EndSlot(slot int64) {
	if nd.status == protocol.Halted {
		return
	}
	acted := nd.slotIdx == nd.nextIdx
	nd.slotIdx++
	if nd.slotIdx >= nd.iterLen {
		if float64(nd.noisy) < nd.haltMax {
			nd.status = protocol.Halted
			return
		}
		nd.startIteration(nd.iter + 1)
		return
	}
	if acted {
		nd.drawGap()
	}
}

// NextActive implements protocol.Sleeper; see coreNode.NextActive. The
// only extra wrinkle is that absorbed iteration boundaries advance pᵢ and
// Rᵢ, exactly as the dense EndSlot would — startIteration redraws the
// gap under the new rate.
func (nd *mcastNode) NextActive(now int64) int64 {
	for {
		if nd.nextIdx < nd.iterLen {
			now += nd.nextIdx - nd.slotIdx
			nd.slotIdx = nd.nextIdx
			return now
		}
		if float64(nd.noisy) < nd.haltMax {
			now += nd.iterLen - 1 - nd.slotIdx
			nd.slotIdx = nd.iterLen - 1
			return now
		}
		now += nd.iterLen - nd.slotIdx
		nd.startIteration(nd.iter + 1)
	}
}

// ---------------------------------------------------------------------------
// MultiCast(C) — Figure 5

// MultiCastC simulates MultiCast in a network with only C channels
// (Figure 5). Iteration i consists of Rᵢ *rounds*; each round spends
// n/(2C) slots simulating one MultiCast slot: a node that picked virtual
// channel ch ∈ [0, n/2) acts only in sub-slot ⌊ch/C⌋ of the round, on
// physical channel ch mod C. Because n/2 is a power of two, C is rounded
// down to the nearest power of two ≤ min(C, n/2) (the paper's "otherwise,
// round down C").
type MultiCastC struct {
	inner     *MultiCast
	c         int   // effective physical channel count
	subSlots  int64 // slots per round = n/(2C)
	requested int   // the C the caller asked for
}

// NewMultiCastC builds the C-channel variant. c ≥ 1 is the number of
// available physical channels.
func NewMultiCastC(params Params, n, c int) (*MultiCastC, error) {
	// The round structure assumes the simulated algorithm uses exactly
	// n/2 virtual channels (Figure 5); the ChannelDiv ablation knob does
	// not apply here.
	params.ChannelDiv = 2
	inner, err := NewMultiCast(params, n)
	if err != nil {
		return nil, err
	}
	requested := c
	if c < 1 {
		c = 1
	}
	if c > n/2 {
		c = maxInt(n/2, 1)
	}
	// Round down to a power of two so C divides n/2 exactly.
	c = 1 << lg(c)
	return &MultiCastC{
		inner:     inner,
		c:         c,
		subSlots:  int64(maxInt(n/2, 1) / c),
		requested: requested,
	}, nil
}

// Name implements protocol.Algorithm.
func (a *MultiCastC) Name() string { return "MultiCast(C)" }

// Channels implements protocol.Algorithm: always the effective C.
func (a *MultiCastC) Channels(slot int64) int { return a.c }

// ChannelSpan implements protocol.ChannelSpanner: the count never changes.
func (a *MultiCastC) ChannelSpan(slot int64) (int, int64) {
	return a.c, math.MaxInt64
}

// NewNode implements protocol.Algorithm. Per the protocol contract, the
// node copies *r; the pointer is not retained.
func (a *MultiCastC) NewNode(id int, source bool, r *rng.Source) protocol.Node {
	nd := &mcastCNode{alg: a, r: *r}
	if source {
		nd.status = protocol.Informed
		nd.knowsM = true
	}
	nd.startIteration(a.inner.params.StartIter)
	return nd
}

// mcastCNode is one node's MultiCast(C) state machine.
type mcastCNode struct {
	alg     *MultiCastC
	r       rng.Source
	status  protocol.Status
	knowsM  bool
	iter    int
	iterLen int64 // Rᵢ in rounds
	p       float64
	lnq     float64 // ln(1−pᵢ), hoisted as in mcastNode
	lnq2    float64 // ln(1−2pᵢ)
	haltMax float64
	noisy   int64
	round   int64 // round index within the iteration
	sub     int64 // sub-slot index within the round

	// nextRound is the iteration index of the node's next active round,
	// pre-drawn as one geometric gap over rounds (iterLen = idle until
	// the iteration boundary), together with that round's action and
	// virtual channel in [0, n/2).
	nextRound int64
	act       protocol.Kind
	virtual   int
}

func (nd *mcastCNode) startIteration(i int) {
	nd.iter = i
	nd.iterLen = nd.alg.inner.IterationLength(i)
	nd.p = nd.alg.inner.ListenProb(i)
	nd.lnq = math.Log1p(-nd.p)
	nd.lnq2 = math.Log1p(-(nd.p * 2))
	nd.haltMax = nd.alg.inner.params.HaltRatio * nd.p * float64(nd.iterLen)
	nd.noisy = 0
	nd.round = 0
	nd.drawRoundGap()
}

// drawRoundGap draws the geometric gap — in rounds, since the node makes
// one virtual-slot choice per round (Figure 5 line 6) — to its next
// active round, and that round's action kind and virtual channel. The
// status cannot change before the active round (Deliver requires
// listening there), so drawing the action eagerly with the gap keeps the
// stream order gap → kind → channel identical to the slot-level
// MultiCast node, preserving the exact C = n/2 equivalence.
func (nd *mcastCNode) drawRoundGap() {
	lnq := nd.lnq
	if nd.status == protocol.Informed {
		lnq = nd.lnq2
	}
	nd.nextRound = nd.round + nd.r.GeometricCappedLn(lnq, nd.iterLen-nd.round)
	if nd.nextRound >= nd.iterLen {
		nd.act = protocol.Idle
		return
	}
	if nd.status == protocol.Informed && nd.r.Bernoulli(0.5) {
		nd.act = protocol.Broadcast
	} else {
		nd.act = protocol.Listen
	}
	nd.virtual = nd.r.Intn(nd.alg.inner.channels)
}

func (nd *mcastCNode) Status() protocol.Status { return nd.status }

func (nd *mcastCNode) Informed() bool { return nd.knowsM }

func (nd *mcastCNode) Step(slot int64) protocol.Action {
	if nd.round != nd.nextRound || nd.status == protocol.Halted {
		return protocol.Action{Kind: protocol.Idle}
	}
	// Act only in the sub-slot that hosts the virtual channel.
	if nd.sub != int64(nd.virtual/nd.alg.c) {
		return protocol.Action{Kind: protocol.Idle}
	}
	physical := nd.virtual % nd.alg.c
	if nd.act == protocol.Listen {
		return protocol.Action{Kind: protocol.Listen, Channel: physical}
	}
	return protocol.Action{Kind: protocol.Broadcast, Channel: physical, Payload: radio.MsgM}
}

func (nd *mcastCNode) Deliver(fb radio.Feedback) {
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

func (nd *mcastCNode) EndSlot(slot int64) {
	if nd.status == protocol.Halted {
		return
	}
	nd.sub++
	if nd.sub < nd.alg.subSlots {
		return
	}
	// Round boundary.
	nd.sub = 0
	acted := nd.round == nd.nextRound
	nd.round++
	if nd.round >= nd.iterLen {
		// Iteration boundary (Figure 5 line 17).
		if float64(nd.noisy) < nd.haltMax {
			nd.status = protocol.Halted
			return
		}
		nd.startIteration(nd.iter + 1)
		return
	}
	if acted {
		nd.drawRoundGap()
	}
}

// NextActive implements protocol.Sleeper. The next active round is
// pre-drawn, so fast-forwarding strides over whole idle rounds with pure
// cursor arithmetic: jump to the sub-slot hosting the active round's
// virtual channel, wake at the iteration's final sub-slot when its
// boundary would halt, and otherwise absorb round and iteration
// boundaries with the same bookkeeping (and gap redraws) as EndSlot.
func (nd *mcastCNode) NextActive(now int64) int64 {
	for {
		if nd.nextRound < nd.iterLen {
			target := int64(nd.virtual / nd.alg.c)
			if nd.round < nd.nextRound || nd.sub <= target {
				now += (nd.nextRound-nd.round)*nd.alg.subSlots + target - nd.sub
				nd.round = nd.nextRound
				nd.sub = target
				return now
			}
			// The action is behind us; the rest of the active round is
			// idle. If it closes the iteration and the boundary would
			// halt, the halt lands at this round's final sub-slot; run
			// that slot so the engine observes the transition.
			if nd.round+1 >= nd.iterLen && float64(nd.noisy) < nd.haltMax {
				now += nd.alg.subSlots - 1 - nd.sub
				nd.sub = nd.alg.subSlots - 1
				return now
			}
			// Absorb through the round boundary, as EndSlot would.
			now += nd.alg.subSlots - nd.sub
			nd.sub = 0
			nd.round++
			if nd.round < nd.iterLen {
				nd.drawRoundGap()
			} else {
				nd.startIteration(nd.iter + 1) // non-halting, checked above
			}
			continue
		}
		// No action before the iteration boundary.
		if float64(nd.noisy) < nd.haltMax {
			now += (nd.iterLen-1-nd.round)*nd.alg.subSlots + nd.alg.subSlots - 1 - nd.sub
			nd.round = nd.iterLen - 1
			nd.sub = nd.alg.subSlots - 1
			return now
		}
		now += (nd.iterLen-nd.round)*nd.alg.subSlots - nd.sub
		nd.sub = 0
		nd.startIteration(nd.iter + 1)
	}
}
