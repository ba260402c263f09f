// Package predict computes the closed-form expectations the paper's
// analysis is built on, so experiments and tests can compare simulated
// counter statistics against the quantities the lemmas manipulate:
//
//   - the expected number of "good" channels per slot (Claim 4.1.1);
//   - per-slot rendezvous probabilities of epidemic broadcast (Lemma 5.1);
//   - the step-two counter expectations E[Nm], E[N'm], E[Ns] of
//     MultiCastAdv as functions of (n, 2^j, p, R) (Lemmas 6.1–6.5);
//   - the epochs at which helper and halt transitions become feasible for
//     a given Params (the machinery behind Theorem 6.10's τ term);
//   - theorem-level slots/cost predictions for MultiCastCore and MultiCast
//     under a full-burst adversary.
//
// All formulas use the same (1 − p/c)^k ≈ e^{−pk/c} algebra as the paper,
// but keep the exact binomial forms where cheap.
package predict

import (
	"math"

	"multicast/internal/core"
)

// GoodChannels returns E[F]: the expected number of channels carrying
// exactly one informed broadcaster and no jamming, with t informed nodes
// broadcasting w.p. p on c channels of which unjammed are clear
// (Claim 4.1.1's quantity).
func GoodChannels(t int, p float64, c, unjammed int) float64 {
	if t < 1 || c < 1 || unjammed < 1 {
		return 0
	}
	// P(exactly one of t informed picks this channel and broadcasts) =
	// t·(p/c)·(1−p/c)^{t−1}.
	pc := p / float64(c)
	single := float64(t) * pc * math.Pow(1-pc, float64(t-1))
	return single * float64(unjammed)
}

// InformProb returns the probability that a fixed uninformed node becomes
// informed in one slot, with t informed among n nodes on c channels and a
// (1 − jam) fraction of channels clear (the Lemma 5.1 per-slot rate).
func InformProb(t, n int, p float64, c int, jam float64) float64 {
	if t < 1 || n <= t || c < 1 {
		return 0
	}
	pc := p / float64(c)
	// Listener listens (p), exactly one informed node is on its channel
	// broadcasting (t·pc·(1−pc)^{t−1}), channel clear (1−jam).
	return p * float64(t) * pc * math.Pow(1-pc, float64(t-1)) * (1 - jam)
}

// EpidemicSlots estimates the jam-free slots for epidemic broadcast to
// inform all n nodes on c channels at probability p, by iterating the
// mean-field growth map. It is the quantity Lemma 4.1 bounds by O(lg T̂).
func EpidemicSlots(n int, p float64, c int) int64 {
	t := 1.0
	var slots int64
	// Mean-field threshold: fewer than half an expected node uninformed
	// counts as "everyone informed" (the discrete process has no
	// fractional stragglers).
	for t < float64(n)-0.5 && slots < 1<<30 {
		growth := (float64(n) - t) * InformProb(int(t), n, p, c, 0)
		if growth < 1e-9 {
			return math.MaxInt64 // degenerate parameters
		}
		t += growth
		slots++
	}
	return slots
}

// StepTwo holds the step-two counter expectations of one MultiCastAdv
// phase for a fixed listening node.
type StepTwo struct {
	Nm      float64 // slots hearing the message m
	NmPrime float64 // slots hearing m or the beacon ±
	Ns      float64 // silent slots
	Nn      float64 // noisy slots (collisions only; no jamming)
}

// StepTwoExpectations returns the counter expectations for a node in step
// two of a phase using c channels with probability p and R slots, when
// informed of the n−1 other nodes broadcast m w.p. p and uninformed nodes
// broadcast ± w.p. p (Lemmas 6.1–6.3 compute these under informed = n).
func StepTwoExpectations(n, informed int, p float64, c int, r float64) StepTwo {
	if informed > n {
		informed = n
	}
	pc := p / float64(c)
	others := n - 1
	// A fixed listener hears m iff exactly one other node is broadcasting
	// on its channel and that node is informed.
	pSingle := float64(others) * pc * math.Pow(1-pc, float64(others-1))
	fracInformed := float64(informed) / float64(n)
	pSilence := math.Pow(1-pc, float64(others))
	pNoise := 1 - pSilence - pSingle

	listen := p * r
	return StepTwo{
		Nm:      listen * pSingle * fracInformed,
		NmPrime: listen * pSingle,
		Ns:      listen * pSilence,
		Nn:      listen * pNoise,
	}
}

// HelperFeasible reports whether the helper checks of MultiCastAdv can
// pass *in expectation* in phase (i, j) for network size n: the means of
// Nm, Ns and N'm sit on the accepting side of the thresholds with the
// given relative margin (e.g. 0.05 = 5% slack for concentration).
func HelperFeasible(params core.Params, n, i, j int, margin float64) bool {
	sched := core.NewAdvSchedule(params)
	r := float64(sched.StepLen(i, j))
	p := sched.Prob(i, j)
	c := sched.ChannelsFor(j)
	exp := StepTwoExpectations(n, n, p, c, r)
	rp := r * p
	rp2 := rp * p
	return exp.Nm >= params.HelperNm*rp2*(1+margin) &&
		exp.Ns >= params.HelperNs*rp*(1+margin) &&
		exp.NmPrime <= params.HelperNmPrime*rp2*(1-margin)
}

// HelperEpoch returns the first epoch i at which the helper checks are
// feasible in expectation at the good phase j = lg n − 1 (with the given
// margin), or -1 if none is found below the search cap. This is the
// mechanism behind the τ = Õ(n^2α) term of Theorem 6.10.
func HelperEpoch(params core.Params, n int, margin float64) int {
	j := lg(n) - 1
	if j < 0 {
		j = 0
	}
	for i := j + 1; i < 200; i++ {
		if HelperFeasible(params, n, i, j, margin) {
			return i
		}
	}
	return -1
}

// HaltEpoch returns the first epoch at which a helper from HelperEpoch can
// pass the halt check in expectation: the helper gap has elapsed and
// residual collision noise sits below the HaltNoise threshold with the
// given margin. Returns -1 if not found below the cap.
func HaltEpoch(params core.Params, n int, margin float64) int {
	he := HelperEpoch(params, n, margin)
	if he < 0 {
		return -1
	}
	j := lg(n) - 1
	if j < 0 {
		j = 0
	}
	gap := params.HelperGap
	if gap == 0 {
		gap = int(math.Ceil(2 / params.Alpha))
	}
	sched := core.NewAdvSchedule(params)
	for i := he + gap; i < 300; i++ {
		r := float64(sched.StepLen(i, j))
		p := sched.Prob(i, j)
		c := sched.ChannelsFor(j)
		exp := StepTwoExpectations(n, n, p, c, r)
		if exp.Nn <= params.HaltNoise*r*p*(1-margin) {
			return i
		}
	}
	return -1
}

// CoreSlots predicts MultiCastCore's termination time against a
// full-burst adversary of budget T on n nodes: Eve buys ⌈T/(n/2)⌉ fully
// jammed slots, nodes halt at the first iteration boundary whose iteration
// saw little noise (Theorem 4.4's Θ(T/n + lg T̂) with explicit constants).
func CoreSlots(params core.Params, n int, budget int64) int64 {
	tHat := budget
	if int64(n) > tHat {
		tHat = int64(n)
	}
	r := int64(math.Ceil(params.CoreA * math.Log2(float64(tHat))))
	if r < 1 {
		r = 1
	}
	jammedSlots := budget / int64(maxInt(n/2, 1))
	// Nodes halt at the end of the first iteration mostly clear of
	// jamming; quantize up to iteration boundaries, plus the final quiet
	// iteration.
	iterations := jammedSlots/r + 1
	return (iterations + 1) * r
}

// MultiCastLastIteration predicts the last iteration a full-burst
// adversary of budget T can block for MultiCast on n nodes: blocking
// iteration i requires keeping the per-listener noise fraction above
// HaltRatio for most of Rᵢ, which costs about (n/2)·Rᵢ·HaltRatio energy.
func MultiCastLastIteration(params core.Params, n int, budget int64) int {
	alg, err := core.NewMultiCast(params, n)
	if err != nil {
		return -1
	}
	last := params.StartIter - 1
	for i := params.StartIter; i < 28; i++ {
		blockCost := float64(n/2) * float64(alg.IterationLength(i)) * params.HaltRatio
		if float64(budget) < blockCost {
			break
		}
		last = i
	}
	return last
}

// MultiCastSlots predicts MultiCast's termination slot under a full-burst
// budget-T adversary: all iterations through the last blockable one, plus
// the first unblocked iteration.
func MultiCastSlots(params core.Params, n int, budget int64) int64 {
	alg, err := core.NewMultiCast(params, n)
	if err != nil {
		return -1
	}
	last := MultiCastLastIteration(params, n, budget)
	var slots int64
	for i := params.StartIter; i <= last+1; i++ {
		slots += alg.IterationLength(i)
	}
	return slots
}

// MultiCastCost predicts the expected per-node cost of MultiCast under a
// full-burst budget-T adversary: 2·Rᵢ·pᵢ per executed iteration (the
// √(T/n) law with explicit constants).
func MultiCastCost(params core.Params, n int, budget int64) float64 {
	alg, err := core.NewMultiCast(params, n)
	if err != nil {
		return -1
	}
	last := MultiCastLastIteration(params, n, budget)
	var cost float64
	for i := params.StartIter; i <= last+1; i++ {
		cost += 2 * float64(alg.IterationLength(i)) * alg.ListenProb(i)
	}
	return cost
}

func lg(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
