package core

import (
	"fmt"
	"math"

	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

// MultiCastAdv is the paper's Figure 4 algorithm. It needs neither n nor T.
// Execution is structured as epochs i = 1, 2, …; epoch i contains phases
// j = 0 … i−1; phase (i,j) guesses n ≈ 2^{j+1}, uses 2^j channels, and runs
// two steps of R(i,j) = ⌈B·2^{2α(i−j)}·i^IExp⌉ slots with listen/broadcast
// probability p(i,j) = 2^{−α(i−j)}/2.
//
// Step one disseminates the message epidemically. Step two is diagnostic:
// nodes broadcast m (or the beacon ± if uninformed) and tally four
// counters — Nm (heard m), N'm (heard m or ±), Nn (noise), Ns (silence).
// At a step-two end, in order (Figure 4 lines 21–23):
//
//  1. an uninformed node with Nm ≥ 1 becomes informed;
//  2. an informed node with Nm ≥ HelperNm·Rp², Ns ≥ HelperNs·Rp and
//     N'm ≤ HelperNmPrime·Rp² becomes a helper and records (iˆ,jˆ) —
//     the three checks together certify 2^j ≈ n/2 (Lemmas 6.1–6.3);
//  3. a helper halts in phases with j = jˆ and i ≥ iˆ + HelperGap iff
//     Nn ≤ HaltNoise·Rp.
//
// The two-stage helper→halt rule makes early terminations harmless: when
// anyone halts, everyone is already a helper (Lemma 6.5), and fewer active
// nodes only lowers the noise others hear.
type MultiCastAdv struct {
	params Params
	jCut   int // -1 for unlimited channels; ⌊lg C⌋ for the (C) variant
	sched  *AdvSchedule
}

// NewMultiCastAdv builds the unlimited-channel algorithm.
func NewMultiCastAdv(params Params) (*MultiCastAdv, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &MultiCastAdv{params: params, jCut: -1, sched: NewAdvSchedule(params)}, nil
}

// NewMultiCastAdvC builds MultiCastAdv(C) (Figure 6) for c ≥ 1 available
// channels: epochs stop at phase j = ⌊lg c⌋, and in that boundary phase the
// helper rule drops the N'm ≤ HelperNmPrime·Rp² condition (the phase with
// the correct guess j = lg n − 1 may not exist, so helpers must be allowed
// to emerge at the cut-off).
func NewMultiCastAdvC(params Params, c int) (*MultiCastAdv, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if c < 1 {
		return nil, fmt.Errorf("core: MultiCastAdv(C) needs c ≥ 1, got %d", c)
	}
	return &MultiCastAdv{params: params, jCut: lg(c), sched: NewAdvScheduleC(params, c)}, nil
}

// Name implements protocol.Algorithm.
func (a *MultiCastAdv) Name() string {
	if a.jCut >= 0 {
		return "MultiCastAdv(C)"
	}
	return "MultiCastAdv"
}

// Channels implements protocol.Algorithm.
func (a *MultiCastAdv) Channels(slot int64) int { return a.sched.At(slot).Channels }

// ChannelSpan implements protocol.ChannelSpanner: the channel count is
// constant within a step window.
func (a *MultiCastAdv) ChannelSpan(slot int64) (int, int64) {
	w := a.sched.At(slot)
	return w.Channels, w.End
}

// Schedule returns a fresh copy of the algorithm's phase schedule, for
// adversaries and experiment harnesses.
func (a *MultiCastAdv) Schedule() *AdvSchedule { return newAdvSchedule(a.params, a.jCut) }

// NewNode implements protocol.Algorithm. Per the protocol contract, the
// node copies *r; the pointer is not retained.
func (a *MultiCastAdv) NewNode(id int, source bool, r *rng.Source) protocol.Node {
	nd := &advNode{
		alg:   a,
		sched: newAdvSchedule(a.params, a.jCut),
		r:     *r,
		win:   0,
	}
	if source {
		nd.status = protocol.Informed
		nd.knowsM = true
	}
	nd.enterWindow(nd.sched.Window(0))
	return nd
}

// advNode is one node's MultiCastAdv state machine.
type advNode struct {
	alg    *MultiCastAdv
	sched  *AdvSchedule
	r      rng.Source
	status protocol.Status
	knowsM bool

	win    int        // index of the current step window
	cur    StepWindow // the current step window
	offset int64      // slot offset within the window
	lnq    float64    // ln(1−q) for the window's action rate q

	// Step-two counters (Figure 4 line 9).
	nm, nmPrime, nn, ns int64

	// Helper bookkeeping (iˆ, jˆ).
	helperI, helperJ int

	// nextOff is the window offset of the node's next action slot,
	// pre-drawn as one geometric gap; cur.Len is the sentinel for "idle
	// until the window boundary".
	nextOff int64
}

// enterWindow starts step window w. In step one a node acts with
// probability p (uninformed listen, informed broadcast); in step two
// everyone acts with probability 2p (listen or broadcast, equally
// likely). Becoming informed mid-window (a step-one listen) does not
// change the step's action rate, so the rate — and with it the gap
// draws' logarithm, hoisted here — is fixed for the whole window.
func (nd *advNode) enterWindow(w StepWindow) {
	nd.cur = w
	nd.offset = 0
	q := w.P
	if w.Step == 2 {
		nd.nm, nd.nmPrime, nd.nn, nd.ns = 0, 0, 0, 0
		q *= 2
	}
	nd.lnq = math.Log1p(-q)
	nd.drawGap()
}

// drawGap draws the geometric gap to the node's next action slot at the
// window's rate. Gaps truncate at the window boundary, where enterWindow
// redraws under the next window's rate.
func (nd *advNode) drawGap() {
	nd.nextOff = nd.offset + nd.r.GeometricCappedLn(nd.lnq, nd.cur.Len-nd.offset)
}

func (nd *advNode) Status() protocol.Status { return nd.status }

func (nd *advNode) Informed() bool { return nd.knowsM }

// Phase returns the node's current (epoch, phase, step) — test hook.
func (nd *advNode) Phase() (i, j, step int) { return nd.cur.I, nd.cur.J, nd.cur.Step }

// HelperPhase returns the recorded (iˆ, jˆ) — test hook; valid once the
// node has reached helper status.
func (nd *advNode) HelperPhase() (i, j int) { return nd.helperI, nd.helperJ }

func (nd *advNode) Step(slot int64) protocol.Action {
	if nd.offset != nd.nextOff || nd.status == protocol.Halted {
		return protocol.Action{Kind: protocol.Idle}
	}
	w := &nd.cur
	if w.Step == 1 {
		// Step one (Figure 4 lines 2–8): uninformed listen, informed and
		// helper broadcast m — the action kind is determined by status.
		ch := nd.r.Intn(w.Channels)
		if nd.status == protocol.Uninformed {
			return protocol.Action{Kind: protocol.Listen, Channel: ch}
		}
		return protocol.Action{Kind: protocol.Broadcast, Channel: ch, Payload: radio.MsgM}
	}
	// Step two (lines 10–20): given that the node acts, listening and
	// broadcasting are equally likely; broadcasts carry the message m if
	// informed, the beacon ± otherwise.
	if nd.r.Bernoulli(0.5) {
		return protocol.Action{Kind: protocol.Listen, Channel: nd.r.Intn(w.Channels)}
	}
	payload := radio.MsgM
	if nd.status == protocol.Uninformed {
		payload = radio.Beacon
	}
	return protocol.Action{Kind: protocol.Broadcast, Channel: nd.r.Intn(w.Channels), Payload: payload}
}

func (nd *advNode) Deliver(fb radio.Feedback) {
	if nd.cur.Step == 1 {
		// Step one: only uninformed nodes listen; hearing m informs them
		// immediately (line 6). Noise and silence are ignored here.
		if fb.Status == radio.Message && fb.Payload == radio.MsgM {
			nd.status = protocol.Informed
			nd.knowsM = true
		}
		return
	}
	// Step two (lines 14–17): update counters; status never changes
	// mid-step, even if an uninformed node hears m.
	switch fb.Status {
	case radio.Message:
		if fb.Payload == radio.MsgM {
			nd.nm++
			nd.nmPrime++
		} else {
			nd.nmPrime++
		}
	case radio.Noise:
		nd.nn++
	case radio.Silence:
		nd.ns++
	}
}

func (nd *advNode) EndSlot(slot int64) {
	if nd.status == protocol.Halted {
		return
	}
	acted := nd.offset == nd.nextOff
	nd.offset++
	if nd.offset < nd.cur.Len {
		if acted {
			nd.drawGap()
		}
		return
	}
	if nd.cur.Step == 2 {
		nd.endOfPhase()
		if nd.status == protocol.Halted {
			return
		}
	}
	nd.win++
	nd.enterWindow(nd.sched.Window(nd.win))
}

// phaseOutcome computes, without mutating the node, the status and helper
// phase that ending the current step-two window would produce — Figure 4
// lines 21–23 (and Figure 6 lines 21–25 for the cut-off variant) in
// pseudocode order. The split from endOfPhase lets NextActive decide
// whether an idle slot may be absorbed or must wake the engine.
func (nd *advNode) phaseOutcome() (status protocol.Status, helperI, helperJ int) {
	w := &nd.cur
	p := nd.alg.params
	rp := float64(w.Len) * w.P
	rp2 := rp * w.P
	status, helperI, helperJ = nd.status, nd.helperI, nd.helperJ

	if status == protocol.Uninformed && nd.nm >= 1 {
		status = protocol.Informed
	}
	if status == protocol.Informed &&
		float64(nd.nm) >= p.HelperNm*rp2 &&
		float64(nd.ns) >= p.HelperNs*rp {
		// At the cut-off phase j = lg C the N'm condition is dropped
		// (Figure 6 line 23); everywhere else it applies.
		if (nd.alg.jCut >= 0 && w.J == nd.alg.jCut) ||
			float64(nd.nmPrime) <= p.HelperNmPrime*rp2 {
			status = protocol.Helper
			helperI, helperJ = w.I, w.J
		}
	}
	if status == protocol.Helper &&
		w.I-helperI >= p.helperGap() &&
		w.J == helperJ &&
		float64(nd.nn) <= p.HaltNoise*rp {
		status = protocol.Halted
	}
	return status, helperI, helperJ
}

// endOfPhase applies the phase outcome.
func (nd *advNode) endOfPhase() {
	st, hi, hj := nd.phaseOutcome()
	if nd.status == protocol.Uninformed && st != protocol.Uninformed {
		nd.knowsM = true
	}
	nd.status, nd.helperI, nd.helperJ = st, hi, hj
}

// NextActive implements protocol.Sleeper. The next action slot is
// pre-drawn, so fast-forwarding jumps straight to it; a step-two window
// closing with no action left may still change the status, in which case
// the engine is woken at the window's final slot instead (the counters
// are frozen while idle, so the outcome is already decided). Absorbed
// window boundaries run the same bookkeeping — endOfPhase and the next
// window's gap draw — as the dense EndSlot.
func (nd *advNode) NextActive(now int64) int64 {
	for {
		if nd.nextOff < nd.cur.Len {
			now += nd.nextOff - nd.offset
			nd.offset = nd.nextOff
			return now
		}
		if nd.cur.Step == 2 {
			if st, _, _ := nd.phaseOutcome(); st != nd.status {
				now += nd.cur.Len - 1 - nd.offset
				nd.offset = nd.cur.Len - 1
				return now
			}
		}
		now += nd.cur.Len - nd.offset
		if nd.cur.Step == 2 {
			nd.endOfPhase() // status unchanged, checked above
		}
		nd.win++
		nd.enterWindow(nd.sched.Window(nd.win))
	}
}
