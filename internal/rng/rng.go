// Package rng provides small, fast, deterministic pseudo-random number
// generators for the simulator.
//
// The paper's model lets every honest node "independently generate random
// bits"; the simulator realises this with one xoshiro256** stream per node,
// all derived from a single trial seed via splitmix64 so that an entire
// execution is reproducible from one uint64. xoshiro256** is not
// cryptographic; it is chosen for speed (the slot loop draws one or two
// values per node per slot) and for well-studied statistical quality.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the seeding generator recommended by the xoshiro authors.
// It is used to expand a single trial seed into independent per-node seeds.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the splitmix64 sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** generator. The zero value is invalid; use New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed. Seeds map to well-mixed internal
// states via splitmix64, so adjacent seeds yield unrelated streams.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets the generator to the stream identified by seed.
func (r *Source) Seed(seed uint64) {
	sm := NewSplitMix64(seed)
	r.s0 = sm.Next()
	r.s1 = sm.Next()
	r.s2 = sm.Next()
	r.s3 = sm.Next()
	// xoshiro256** must not start in the all-zero state; splitmix64 output
	// of four consecutive zeros is impossible, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 1
	}
}

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method: one multiplication in the
// common case, exact uniformity always.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p. Values of p outside [0, 1]
// clamp to always-false / always-true.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// MaxGap is the ceiling on Geometric results. It is far beyond any slot
// count the simulator can reach (the engine's MaxSlots valve is ~2²⁷), so
// the clamp only protects downstream slot arithmetic from overflowing.
const MaxGap = int64(1) << 62

// Geometric returns the number of consecutive failures before the first
// success in a sequence of independent Bernoulli(p) trials — the pmf
// P(G = k) = (1−p)ᵏ·p on k = 0, 1, 2, … — drawn in closed form by
// inverting the CDF: G = ⌊ln U / ln(1−p)⌋ for one uniform U ∈ (0, 1].
// A single uniform replaces the E[G] = (1−p)/p draws of a per-trial
// Bernoulli loop, which is what makes per-gap skip-sampling cheaper than
// per-slot coins. Like Bernoulli, the degenerate edges consume no draw:
// p ≥ 1 returns 0 (success is immediate) and p ≤ 0 returns MaxGap
// (success never comes). Results clamp to MaxGap.
func (r *Source) Geometric(p float64) int64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return MaxGap
	}
	// 1 − Float64() lies in (0, 1], keeping the logarithm finite;
	// log1p(-p) is the accurate form of ln(1−p) for small p.
	g := math.Log(1-r.Float64()) / math.Log1p(-p)
	if g >= float64(MaxGap) {
		return MaxGap
	}
	return int64(g)
}

// GeometricLn is Geometric with the denominator precomputed: lnQ must be
// math.Log1p(-p) for the success probability p. The division by lnQ uses
// the same expression tree as Geometric, so for equal p the two functions
// return bit-identical results from identical draws — GeometricLn exists
// so per-draw callers can hoist the Log1p out of their hot loop. The
// degenerate edges mirror Geometric's and consume no draw: p ≥ 1 maps to
// lnQ = −Inf (p = 1) or NaN (p > 1) and returns 0; p ≤ 0 maps to
// lnQ ≥ 0 and returns MaxGap.
func (r *Source) GeometricLn(lnQ float64) int64 {
	if math.IsInf(lnQ, -1) || math.IsNaN(lnQ) {
		return 0
	}
	if lnQ >= 0 {
		return MaxGap
	}
	g := math.Log(1-r.Float64()) / lnQ
	if g >= float64(MaxGap) {
		return MaxGap
	}
	return int64(g)
}

// GeometricCappedLn returns min(GeometricLn(lnQ), limit), under
// GeometricLn's lnQ contract. The capped draw is how the slot engines
// truncate a gap at a window boundary: the result equals limit with
// probability P(G ≥ limit) = (1−p)^limit — exactly the probability that
// no action occurs in the limit remaining slots — so "gap == limit"
// doubles as the no-action-before-the-boundary sentinel.
func (r *Source) GeometricCappedLn(lnQ float64, limit int64) int64 {
	if g := r.GeometricLn(lnQ); g < limit {
		return g
	}
	return limit
}

// Fork returns a new Source whose stream is a deterministic function of
// this source's current state, advancing this source by one draw. It is
// the mechanism used to hand independent streams to nodes and adversaries.
func (r *Source) Fork() *Source {
	return New(r.Uint64())
}
