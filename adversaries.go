package multicast

import (
	"multicast/internal/adversary"
	"multicast/internal/scenario"
)

// NoJammer returns the absent adversary (T = 0).
func NoJammer() Adversary { return adversary.None() }

// FullBurstJammer jams every channel from slot start until the budget is
// exhausted — the strategy behind the Ω(T/C) time lower bound.
func FullBurstJammer(start int64) Adversary { return adversary.FullBurst(start) }

// FractionJammer jams a fixed ⌈f·c⌉-channel block every slot. Against
// uniformly hopping nodes this is distributionally equivalent to jamming a
// random f-fraction (the workload of Lemmas 4.1/5.1/6.7).
func FractionJammer(f float64) Adversary { return adversary.BlockFraction(f) }

// RandomFractionJammer jams each channel independently with probability f
// per slot, from a stream fixed before execution (oblivious).
func RandomFractionJammer(f float64) Adversary { return adversary.RandomFraction(f) }

// SweepJammer jams a width-channel window rotating one channel per slot.
func SweepJammer(width int) Adversary { return adversary.Sweep(width) }

// PulseJammer jams an f-fraction block during the first duty slots of
// every period, stopping entirely at stopAfter (0 = never).
func PulseJammer(period, duty int64, f float64, stopAfter int64) Adversary {
	return adversary.Pulse(period, duty, f, stopAfter)
}

// StopJammingAfter silences any jammer from slot stop onwards — used to
// measure shutdown latency once Eve gives up.
func StopJammingAfter(inner Adversary, stop int64) Adversary {
	return adversary.StopAfter(inner, stop)
}

// PhaseTargetedJammer jams fraction f of the channels only during
// MultiCastAdv phases with phase number targetJ — the paper's worst-case
// oblivious attack: concentrate the budget on the "good" phases
// j = lg n − 1 where epidemic broadcast could succeed. params must match
// the algorithm's; channelsC ≤ 0 targets the unlimited-channel schedule,
// otherwise the MultiCastAdv(C) schedule for that C.
func PhaseTargetedJammer(params Params, channelsC, targetJ int, f float64) Adversary {
	return scenario.PhaseTargeted(params, channelsC, targetJ, f)
}

// ReactiveJammer is an *adaptive* jammer (the §8 future-work model, beyond
// the paper's oblivious proofs): each slot it jams the channels that
// carried transmissions in the previous slot, up to maxFraction of the
// spectrum. Experiment E13 tests the paper's conjecture that MultiCast
// survives it unmodified.
func ReactiveJammer(maxFraction float64) Adversary { return adversary.Reactive(maxFraction) }

// CamperJammer is an adaptive follower jammer: it camps for dwell slots on
// every channel it saw deliver a message, tracking at most maxChans at a
// time.
func CamperJammer(dwell int64, maxChans int) Adversary {
	return adversary.Camper(dwell, maxChans)
}
