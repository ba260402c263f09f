// Package adversary implements oblivious jamming strategies for Eve.
//
// Eve is the paper's adversary (Section 3): in every slot she may jam any
// set of channels, paying one energy unit per channel per slot, subject
// only to her total budget T. She is *oblivious*: she knows the algorithm
// (including its channel-uniform schedule) but cannot observe execution.
// The interface enforces obliviousness by construction — strategies see
// only the slot index and the channel count, never node actions or
// feedback. Budget enforcement is done by the simulation engine via
// Truncate, so a strategy may simply describe its ideal jamming pattern.
package adversary

import (
	"fmt"
	"math"

	"multicast/internal/bitset"
	"multicast/internal/rng"
)

// Strategy produces Eve's jam set for each slot.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Fill sets, in mask, the channels Eve wants to jam in the given slot,
	// given that channels channels are in use. mask arrives cleared with
	// capacity ≥ channels; only bits < channels may be set. Fill returns
	// the number of bits it set.
	Fill(slot int64, channels int, mask *bitset.Set) int
}

// Factory builds a per-trial Strategy instance. Randomised strategies draw
// from r (fixed before execution, preserving obliviousness); deterministic
// ones may ignore it.
type Factory interface {
	// Name identifies the strategy family in reports.
	Name() string
	// New returns a fresh Strategy drawing randomness from r.
	New(r *rng.Source) Strategy
}

// RangeSpender is an optional Strategy extension used by the event
// engine's range skipping. When no node acts in [from, to), the jam *set* is
// unobservable — only its size matters, because Eve still pays one unit
// per jammed channel per slot. SpendRange returns the total energy the
// strategy would spend over slots [from, to), all with the same channel
// count, exactly equal to the sum of Fill counts the per-slot path would
// produce (ignoring budget truncation, which the engine applies on top).
//
// Implementations must advance any internal state — including random
// draws — exactly as the equivalent sequence of per-slot Fill calls
// would, so that event and dense executions stay bit-identical.
// Strategies without this method fall back to per-slot Fill against a
// scratch mask.
type RangeSpender interface {
	// SpendRange returns Σ_{s∈[from,to)} Fill(s, channels, ·).
	SpendRange(from, to int64, channels int) int64
}

// PrefixJammer is an optional Strategy extension for deterministic
// strategies whose jam set in every slot is a channel prefix [0, k).
// JamPrefix returns that k: it must equal what Fill would return for the
// slot, with Fill's mask being exactly the channels [0, k), and it must
// not consume randomness or mutate state. Engines use it to answer
// jam-membership queries (is channel ch jammed?) in closed form, without
// materialising a mask — note that truncating a prefix jam set to a
// smaller budget (Truncate clears from the highest channel down) yields
// the shorter prefix [0, budget), so budget enforcement stays closed-form
// too. Randomised strategies must not implement this interface: their
// Fill draws are part of the reproducible stream.
type PrefixJammer interface {
	// JamPrefix returns the slot's jammed-prefix length k.
	JamPrefix(slot int64, channels int) int
}

// factoryFunc adapts a closure to Factory.
type factoryFunc struct {
	name string
	fn   func(r *rng.Source) Strategy
}

func (f factoryFunc) Name() string               { return f.name }
func (f factoryFunc) New(r *rng.Source) Strategy { return f.fn(r) }

// NewFactory wraps a constructor closure as a Factory.
func NewFactory(name string, fn func(r *rng.Source) Strategy) Factory {
	return factoryFunc{name: name, fn: fn}
}

// Truncate reduces the number of set bits in mask (within [0, channels)) to
// at most keep by clearing bits from the highest channel downward, and
// returns the resulting count. The engine uses it to cap a slot's jamming
// at Eve's remaining budget. Clearing from the top is a fixed,
// execution-independent rule, so truncation cannot leak adaptivity.
func Truncate(mask *bitset.Set, channels, count, keep int) int {
	if keep < 0 {
		keep = 0
	}
	if count <= keep {
		return count
	}
	for ch := channels - 1; ch >= 0 && count > keep; ch-- {
		if mask.Test(ch) {
			mask.Clear(ch)
			count--
		}
	}
	return count
}

// ---------------------------------------------------------------------------
// None

type none struct{}

func (none) Name() string                       { return "none" }
func (none) Fill(int64, int, *bitset.Set) int   { return 0 }
func (none) SpendRange(int64, int64, int) int64 { return 0 }
func (none) JamPrefix(int64, int) int           { return 0 }

// None returns the absent adversary (T = 0).
func None() Factory {
	return NewFactory("none", func(*rng.Source) Strategy { return none{} })
}

// ---------------------------------------------------------------------------
// FullBurst

type fullBurst struct{ start int64 }

func (b fullBurst) Name() string { return fmt.Sprintf("full-burst(start=%d)", b.start) }

func (b fullBurst) Fill(slot int64, channels int, mask *bitset.Set) int {
	if slot < b.start {
		return 0
	}
	mask.SetRange(0, channels)
	return channels
}

// SpendRange implements RangeSpender: channels units per slot ≥ start.
func (b fullBurst) SpendRange(from, to int64, channels int) int64 {
	if from < b.start {
		from = b.start
	}
	if from >= to {
		return 0
	}
	return (to - from) * int64(channels)
}

// JamPrefix implements PrefixJammer: the whole spectrum from slot start.
func (b fullBurst) JamPrefix(slot int64, channels int) int {
	if slot < b.start {
		return 0
	}
	return channels
}

// FullBurst jams every channel in every slot from slot start until the
// budget runs out. Against a c-channel algorithm it buys ~T/c fully-blocked
// slots — the strategy behind the Ω(T/C) time lower bound (Section 7).
func FullBurst(start int64) Factory {
	return NewFactory(fmt.Sprintf("full-burst(start=%d)", start),
		func(*rng.Source) Strategy { return fullBurst{start: start} })
}

// ---------------------------------------------------------------------------
// BlockFraction

type blockFraction struct{ f float64 }

func (b blockFraction) Name() string { return fmt.Sprintf("block-fraction(%.2f)", b.f) }

func (b blockFraction) Fill(slot int64, channels int, mask *bitset.Set) int {
	k := int(math.Ceil(b.f * float64(channels)))
	if k > channels {
		k = channels
	}
	if k <= 0 {
		return 0
	}
	mask.SetRange(0, k)
	return k
}

// SpendRange implements RangeSpender: ⌈f·c⌉ units per slot.
func (b blockFraction) SpendRange(from, to int64, channels int) int64 {
	k := int(math.Ceil(b.f * float64(channels)))
	if k > channels {
		k = channels
	}
	if k <= 0 || from >= to {
		return 0
	}
	return (to - from) * int64(k)
}

// JamPrefix implements PrefixJammer: the fixed ⌈f·c⌉-channel block.
func (b blockFraction) JamPrefix(slot int64, channels int) int {
	k := int(math.Ceil(b.f * float64(channels)))
	if k > channels {
		k = channels
	}
	if k < 0 {
		k = 0
	}
	return k
}

// BlockFraction jams a fixed ⌈f·c⌉-channel block every slot. Because honest
// nodes pick channels uniformly at random each slot, jamming a fixed block
// is distributionally identical to jamming a random f-fraction, at lower
// simulation cost. This is the canonical "jam y fraction of channels every
// slot" workload of Lemmas 4.1/5.1/6.7.
func BlockFraction(f float64) Factory {
	return NewFactory(fmt.Sprintf("block-fraction(%.2f)", f),
		func(*rng.Source) Strategy { return blockFraction{f: f} })
}

// ---------------------------------------------------------------------------
// RandomFraction

type randomFraction struct {
	f float64
	r *rng.Source
}

func (s *randomFraction) Name() string { return fmt.Sprintf("random-fraction(%.2f)", s.f) }

func (s *randomFraction) Fill(slot int64, channels int, mask *bitset.Set) int {
	count := 0
	for ch := 0; ch < channels; ch++ {
		if s.r.Bernoulli(s.f) {
			mask.Set(ch)
			count++
		}
	}
	return count
}

// SpendRange implements RangeSpender. The strategy is randomised, so the
// aggregate count still costs one Bernoulli draw per channel per slot —
// the per-slot draws must be consumed to keep the stream aligned with a
// dense run — but it skips all mask writes.
func (s *randomFraction) SpendRange(from, to int64, channels int) int64 {
	var total int64
	for slot := from; slot < to; slot++ {
		for ch := 0; ch < channels; ch++ {
			if s.r.Bernoulli(s.f) {
				total++
			}
		}
	}
	return total
}

// RandomFraction jams each channel independently with probability f every
// slot; the per-slot jam count is Binomial(c, f). The randomness is drawn
// from a pre-committed stream, so the strategy remains oblivious.
func RandomFraction(f float64) Factory {
	return NewFactory(fmt.Sprintf("random-fraction(%.2f)", f),
		func(r *rng.Source) Strategy { return &randomFraction{f: f, r: r} })
}

// ---------------------------------------------------------------------------
// Sweep

type sweep struct{ width int }

func (s sweep) Name() string { return fmt.Sprintf("sweep(width=%d)", s.width) }

func (s sweep) Fill(slot int64, channels int, mask *bitset.Set) int {
	w := s.width
	if w > channels {
		w = channels
	}
	if w <= 0 {
		return 0
	}
	start := int(slot % int64(channels))
	for i := 0; i < w; i++ {
		mask.Set((start + i) % channels)
	}
	return w
}

// SpendRange implements RangeSpender: min(width, channels) units per slot.
func (s sweep) SpendRange(from, to int64, channels int) int64 {
	w := s.width
	if w > channels {
		w = channels
	}
	if w <= 0 || from >= to {
		return 0
	}
	return (to - from) * int64(w)
}

// Sweep jams a contiguous window of width channels that rotates by one
// channel per slot — a model of a frequency-sweeping jammer.
func Sweep(width int) Factory {
	return NewFactory(fmt.Sprintf("sweep(width=%d)", width),
		func(*rng.Source) Strategy { return sweep{width: width} })
}

// ---------------------------------------------------------------------------
// Pulse

type pulse struct {
	period, duty int64
	f            float64
	stopAfter    int64
}

func (p pulse) Name() string {
	return fmt.Sprintf("pulse(period=%d,duty=%d,f=%.2f)", p.period, p.duty, p.f)
}

func (p pulse) Fill(slot int64, channels int, mask *bitset.Set) int {
	if p.stopAfter > 0 && slot >= p.stopAfter {
		return 0
	}
	if slot%p.period >= p.duty {
		return 0
	}
	k := int(math.Ceil(p.f * float64(channels)))
	if k > channels {
		k = channels
	}
	if k <= 0 {
		return 0
	}
	mask.SetRange(0, k)
	return k
}

// JamPrefix implements PrefixJammer: the f-fraction block on duty slots.
func (p pulse) JamPrefix(slot int64, channels int) int {
	if p.stopAfter > 0 && slot >= p.stopAfter {
		return 0
	}
	if slot%p.period >= p.duty {
		return 0
	}
	k := int(math.Ceil(p.f * float64(channels)))
	if k > channels {
		k = channels
	}
	if k < 0 {
		k = 0
	}
	return k
}

// SpendRange implements RangeSpender: k units for every on-duty slot in
// the range, counted in closed form.
func (p pulse) SpendRange(from, to int64, channels int) int64 {
	if p.stopAfter > 0 && to > p.stopAfter {
		to = p.stopAfter
	}
	if from >= to {
		return 0
	}
	k := int(math.Ceil(p.f * float64(channels)))
	if k > channels {
		k = channels
	}
	if k <= 0 {
		return 0
	}
	// onBefore(x) = number of on-duty slots in [0, x).
	onBefore := func(x int64) int64 {
		n := (x / p.period) * p.duty
		if rem := x % p.period; rem < p.duty {
			n += rem
		} else {
			n += p.duty
		}
		return n
	}
	return (onBefore(to) - onBefore(from)) * int64(k)
}

// Pulse jams an f-fraction block during the first duty slots of every
// period-slot cycle, and stops entirely at slot stopAfter (0 = never).
// Used by the fast-shutdown experiment (E8): Eve pulses, then goes silent,
// and we measure how quickly nodes halt after the silence begins.
func Pulse(period, duty int64, f float64, stopAfter int64) Factory {
	if period <= 0 {
		panic("adversary: pulse period must be positive")
	}
	if duty < 0 || duty > period {
		panic("adversary: pulse duty must be within [0, period]")
	}
	return NewFactory(fmt.Sprintf("pulse(period=%d,duty=%d,f=%.2f,stop=%d)", period, duty, f, stopAfter),
		func(*rng.Source) Strategy { return pulse{period: period, duty: duty, f: f, stopAfter: stopAfter} })
}

// ---------------------------------------------------------------------------
// Bursty

type bursty struct {
	f       float64
	meanOn  float64
	meanOff float64
	r       *rng.Source
	on      bool
	next    int64 // slot at which the current burst state flips
}

func (s *bursty) Name() string {
	return fmt.Sprintf("bursty(f=%.2f,on=%.0f,off=%.0f)", s.f, s.meanOn, s.meanOff)
}

// geometric draws a geometric duration with the given mean (≥ 1): the
// number of Bernoulli(1/mean) trials up to and including the first
// success, drawn as one closed-form inverse-CDF sample. The old per-slot
// loop cost E[mean] draws and capped durations at 2²⁰ slots, silently
// truncating (and so biasing) long bursts; the closed form costs one
// draw and is exact.
func geometric(r *rng.Source, mean float64) int64 {
	if mean <= 1 {
		return 1
	}
	return 1 + r.Geometric(1/mean)
}

func (s *bursty) Fill(slot int64, channels int, mask *bitset.Set) int {
	for slot >= s.next {
		s.on = !s.on
		if s.on {
			s.next += geometric(s.r, s.meanOn)
		} else {
			s.next += geometric(s.r, s.meanOff)
		}
	}
	if !s.on {
		return 0
	}
	k := int(math.Ceil(s.f * float64(channels)))
	if k > channels {
		k = channels
	}
	if k <= 0 {
		return 0
	}
	mask.SetRange(0, k)
	return k
}

// SpendRange implements RangeSpender: walk the on/off flips across the
// range in burst-sized chunks. Flip boundaries draw from the same
// pre-committed stream as per-slot Fill calls would, in the same order,
// so the strategy state stays bit-identical to a dense run.
func (s *bursty) SpendRange(from, to int64, channels int) int64 {
	k := int(math.Ceil(s.f * float64(channels)))
	if k > channels {
		k = channels
	}
	var total int64
	for slot := from; slot < to; {
		for slot >= s.next {
			s.on = !s.on
			if s.on {
				s.next += geometric(s.r, s.meanOn)
			} else {
				s.next += geometric(s.r, s.meanOff)
			}
		}
		end := s.next
		if end > to {
			end = to
		}
		if s.on && k > 0 {
			total += (end - slot) * int64(k)
		}
		slot = end
	}
	return total
}

// Bursty is a two-state Markov (on/off) jammer: bursts of f-fraction
// jamming with geometric durations of the given means, separated by
// geometric quiet gaps — a standard model of environmental interference
// (e.g. microwave ovens, §1). Burst boundaries come from a pre-committed
// stream, so the strategy is oblivious.
func Bursty(f float64, meanOn, meanOff float64) Factory {
	if meanOn < 1 || meanOff < 1 {
		panic("adversary: bursty durations must be ≥ 1")
	}
	return NewFactory(fmt.Sprintf("bursty(f=%.2f,on=%.0f,off=%.0f)", f, meanOn, meanOff),
		func(r *rng.Source) Strategy {
			// Starts in the off state with next = 0, so the first Fill call
			// flips it on: executions begin inside a burst.
			return &bursty{f: f, meanOn: meanOn, meanOff: meanOff, r: r}
		})
}

// ---------------------------------------------------------------------------
// Windowed

type windowed struct {
	inner  Strategy
	active func(slot int64) bool
	label  string
}

func (w windowed) Name() string { return w.label }

func (w windowed) Fill(slot int64, channels int, mask *bitset.Set) int {
	if !w.active(slot) {
		return 0
	}
	return w.inner.Fill(slot, channels, mask)
}

// windowedRanged is a windowed strategy whose inner strategy also supports
// aggregate spending. The gate predicate is per-slot, so the range walk is
// slot-by-slot, but it calls the inner strategy only on active slots —
// matching dense Fill gating — and never touches a mask.
type windowedRanged struct {
	windowed
	rs RangeSpender
}

func (w windowedRanged) SpendRange(from, to int64, channels int) int64 {
	var total int64
	for s := from; s < to; s++ {
		if w.active(s) {
			total += w.rs.SpendRange(s, s+1, channels)
		}
	}
	return total
}

// wrapWindowed builds the windowed wrapper, promoting to windowedRanged
// when the inner strategy implements RangeSpender.
func wrapWindowed(name string, inner Strategy, active func(slot int64) bool) Strategy {
	w := windowed{inner: inner, active: active, label: name}
	if rs, ok := inner.(RangeSpender); ok {
		return windowedRanged{windowed: w, rs: rs}
	}
	return w
}

// Windowed gates an inner strategy by a slot predicate. The predicate must
// be a pure function of the slot index (e.g. derived from the published
// algorithm schedule), which keeps the strategy oblivious. It is the
// building block for the paper's worst-case MultiCastAdv attack: jam only
// the phases with j = lg n − 1, where epidemic broadcast can succeed.
//
// The predicate is shared by every trial's strategy instance; if it keeps
// mutable state (e.g. a schedule cursor), build per-trial instances with
// NewFactory + NewWindowed instead.
func Windowed(name string, inner Factory, active func(slot int64) bool) Factory {
	return NewFactory(name, func(r *rng.Source) Strategy {
		return wrapWindowed(name, inner.New(r), active)
	})
}

// NewWindowed wraps an already-built strategy with a slot predicate. Use it
// inside a NewFactory closure when the predicate carries per-trial state.
func NewWindowed(name string, inner Strategy, active func(slot int64) bool) Strategy {
	return wrapWindowed(name, inner, active)
}

// ---------------------------------------------------------------------------
// StopAfter

// StopAfter wraps a factory so all jamming ceases at slot stop.
func StopAfter(inner Factory, stop int64) Factory {
	name := fmt.Sprintf("%s-until(%d)", inner.Name(), stop)
	return Windowed(name, inner, func(slot int64) bool { return slot < stop })
}
