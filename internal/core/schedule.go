package core

import (
	"math"
	"sort"
)

// DefaultChannelCap bounds the number of *simulated* channels. The paper
// assumes unlimited channels; MultiCastAdv's phase j uses 2^j of them and j
// grows without bound in every epoch, which no simulator can allocate.
// Capping at 2^16 preserves the behaviour the analysis relies on — in
// phases with far more channels than nodes, nodes (almost) never meet, so
// Nm stays far below the helper threshold (Lemma 6.2) — as long as the cap
// is ≫ n.
const DefaultChannelCap = 1 << 16

// StepWindow describes one step of one (i,j)-phase as a slot interval.
type StepWindow struct {
	Start, End int64 // slot interval [Start, End)
	I, J       int   // epoch and phase numbers
	Step       int   // 1 (message dissemination) or 2 (status adjustment)
	Len        int64 // End - Start = R(i,j)
	Channels   int   // simulated channels in use (min(2^j, cap))
	P          float64
}

// AdvSchedule materialises the epoch/phase/step lattice of MultiCastAdv
// (and, with a cut-off, MultiCastAdv(C)) as a lazily extended sequence of
// StepWindows. It is a pure function of Params and the cut-off: every node,
// the engine, and the (oblivious) adversary can derive the same schedule
// independently. Not safe for concurrent use; create one per consumer.
type AdvSchedule struct {
	params     Params
	jCut       int // inclusive max phase number; <0 means no cut-off
	channelCap int

	windows []StepWindow
	curI    int
	curJ    int
	curStep int
	nextAt  int64
	lastHit int // cursor cache for sequential At calls
}

// NewAdvSchedule returns the schedule for MultiCastAdv. params must be valid.
func NewAdvSchedule(params Params) *AdvSchedule {
	return newAdvSchedule(params, -1)
}

// NewAdvScheduleC returns the schedule for MultiCastAdv(C): epochs skip
// phases with j > ⌊lg c⌋ (Figure 6 line 4).
func NewAdvScheduleC(params Params, c int) *AdvSchedule {
	if c < 1 {
		c = 1
	}
	return newAdvSchedule(params, lg(c))
}

func newAdvSchedule(params Params, jCut int) *AdvSchedule {
	return &AdvSchedule{
		params:     params,
		jCut:       jCut,
		channelCap: DefaultChannelCap,
		curI:       1,
		curJ:       0,
		curStep:    1,
	}
}

// StepLen returns R(i,j) = ⌈B·2^{2α(i−j)}·i^IExp⌉.
func (s *AdvSchedule) StepLen(i, j int) int64 {
	p := s.params
	return ceilPos(p.B * math.Exp2(2*p.Alpha*float64(i-j)) * math.Pow(float64(i), float64(p.IExp)))
}

// Prob returns p(i,j) = 2^{−α(i−j)}/2.
func (s *AdvSchedule) Prob(i, j int) float64 {
	return math.Exp2(-s.params.Alpha*float64(i-j)) / 2
}

// ChannelsFor returns the simulated channel count for phase j.
func (s *AdvSchedule) ChannelsFor(j int) int {
	if j >= 31 || 1<<j > s.channelCap {
		return s.channelCap
	}
	return 1 << j
}

// maxJ returns the largest phase number in epoch i.
func (s *AdvSchedule) maxJ(i int) int {
	m := i - 1
	if s.jCut >= 0 && s.jCut < m {
		m = s.jCut
	}
	return m
}

// extend appends the next step window.
func (s *AdvSchedule) extend() {
	i, j, step := s.curI, s.curJ, s.curStep
	l := s.StepLen(i, j)
	s.windows = append(s.windows, StepWindow{
		Start:    s.nextAt,
		End:      s.nextAt + l,
		I:        i,
		J:        j,
		Step:     step,
		Len:      l,
		Channels: s.ChannelsFor(j),
		P:        s.Prob(i, j),
	})
	s.nextAt += l
	// Advance the (i, j, step) cursor.
	if step == 1 {
		s.curStep = 2
		return
	}
	s.curStep = 1
	if j < s.maxJ(i) {
		s.curJ = j + 1
		return
	}
	s.curI = i + 1
	s.curJ = 0
}

// Window returns the k-th step window (0-based), generating as needed.
func (s *AdvSchedule) Window(k int) StepWindow {
	for len(s.windows) <= k {
		s.extend()
	}
	return s.windows[k]
}

// At returns the window covering the given slot. Sequential access is O(1)
// amortised; random access costs a binary search.
func (s *AdvSchedule) At(slot int64) StepWindow {
	if slot < 0 {
		panic("core: negative slot")
	}
	for s.nextAt <= slot {
		s.extend()
	}
	// Fast path: the cached cursor or its successor covers the slot.
	if s.lastHit < len(s.windows) {
		if w := s.windows[s.lastHit]; w.Start <= slot && slot < w.End {
			return w
		}
		if s.lastHit+1 < len(s.windows) {
			if w := s.windows[s.lastHit+1]; w.Start <= slot && slot < w.End {
				s.lastHit++
				return w
			}
		}
	}
	k := sort.Search(len(s.windows), func(k int) bool { return s.windows[k].End > slot })
	s.lastHit = k
	return s.windows[k]
}

// ActiveFunc returns a pure slot predicate that reports whether the slot
// falls in a window matched by match. The returned closure owns a private
// schedule cursor, so it is independent of other consumers and safe to
// hand to an (oblivious) adversary.
func (s *AdvSchedule) ActiveFunc(match func(w StepWindow) bool) func(slot int64) bool {
	priv := newAdvSchedule(s.params, s.jCut)
	return func(slot int64) bool {
		return match(priv.At(slot))
	}
}
