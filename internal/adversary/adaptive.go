package adversary

import (
	"fmt"

	"multicast/internal/bitset"
	"multicast/internal/rng"
)

// The paper proves its guarantees for an *oblivious* Eve and conjectures
// (§8, future work) that MultiCast and MultiCastAdv survive an *adaptive*
// one "with few (or even no) modifications". This file implements that
// stronger adversary so the conjecture can be tested empirically (E13).
//
// Model: an adaptive Eve observes, after every slot, the activity on every
// channel (silent / message delivered / collision, and whether she jammed
// it) and may condition the NEXT slot's jam set on the entire history.
// She still cannot predict the honest nodes' future coins — they re-draw
// channels and roles every slot — which is exactly why the algorithms are
// conjectured to survive: last slot's activity carries no information
// about this slot's rendezvous.

// Activity is what Eve senses on one channel after a slot.
type Activity uint8

const (
	// Quiet: no broadcaster on the channel.
	Quiet Activity = iota
	// Delivered: exactly one broadcaster and Eve did not jam — a message
	// (or beacon) got through.
	Delivered
	// Collided: two or more broadcasters.
	Collided
	// Jammed: Eve jammed the channel (whatever else happened on it).
	Jammed
)

// String returns a readable activity name.
func (a Activity) String() string {
	switch a {
	case Quiet:
		return "quiet"
	case Delivered:
		return "delivered"
	case Collided:
		return "collided"
	case Jammed:
		return "jammed"
	default:
		return fmt.Sprintf("Activity(%d)", uint8(a))
	}
}

// Adaptive is an adversary strategy that additionally receives per-slot
// channel observations. The engine calls Observe exactly once per slot,
// after the slot resolves and before the next slot's Fill.
type Adaptive interface {
	Strategy
	// Observe reports the activity of every channel used in the slot.
	// The slice is reused between calls; implementations must copy what
	// they keep.
	Observe(slot int64, activity []Activity)
}

// ---------------------------------------------------------------------------
// Reactive

// reactive is the classic reactive jammer (cf. Richa et al.): it jams, in
// each slot, the channels on which it sensed broadcast activity in the
// previous slot, up to a budget-rate cap of maxFraction of all channels.
type reactive struct {
	maxFraction float64
	busy        []int // channels active in the previous slot
}

func (s *reactive) Name() string { return fmt.Sprintf("reactive(max=%.2f)", s.maxFraction) }

func (s *reactive) Fill(slot int64, channels int, mask *bitset.Set) int {
	cap := int(s.maxFraction * float64(channels))
	count := 0
	for _, ch := range s.busy {
		if ch >= channels || count >= cap {
			break
		}
		mask.Set(ch)
		count++
	}
	return count
}

func (s *reactive) Observe(slot int64, activity []Activity) {
	s.busy = s.busy[:0]
	for ch, a := range activity {
		if a == Delivered || a == Collided {
			s.busy = append(s.busy, ch)
		}
	}
}

// Reactive returns the adaptive reactive jammer: jam every channel that
// carried transmissions one slot ago, capped at maxFraction of the
// spectrum per slot.
func Reactive(maxFraction float64) Factory {
	return NewFactory(fmt.Sprintf("reactive(max=%.2f)", maxFraction),
		func(*rng.Source) Strategy { return &reactive{maxFraction: maxFraction} })
}

// ---------------------------------------------------------------------------
// Camper

// camper locks onto channels that recently delivered a message and camps
// on them for dwell slots — a "follower" jammer chasing successful
// rendezvous points. Expiry is lazy: a channel whose dwell has run out
// stays tracked, and counts against maxChans, until the next Fill drops
// it.
type camper struct {
	dwell    int64
	maxChans int
	tracked  []int   // tracked channels, in no particular order
	expiry   []int64 // expiry[ch]: last slot to jam ch; 0 iff ch is untracked
}

func (s *camper) Name() string {
	return fmt.Sprintf("camper(dwell=%d,max=%d)", s.dwell, s.maxChans)
}

func (s *camper) Fill(slot int64, channels int, mask *bitset.Set) int {
	count := 0
	kept := s.tracked[:0]
	for _, ch := range s.tracked {
		if slot > s.expiry[ch] {
			s.expiry[ch] = 0
			continue
		}
		kept = append(kept, ch)
		if ch < channels {
			mask.Set(ch)
			count++
		}
	}
	s.tracked = kept
	return count
}

// Observe tracks every channel that delivered, until slot+dwell. A
// tracked channel's expiry is at least dwell ≥ 1, which is what lets 0
// mark untracked channels.
func (s *camper) Observe(slot int64, activity []Activity) {
	if len(activity) > len(s.expiry) {
		s.expiry = append(s.expiry, make([]int64, len(activity)-len(s.expiry))...)
	}
	for ch, a := range activity {
		if a != Delivered {
			continue
		}
		if s.expiry[ch] == 0 {
			if len(s.tracked) >= s.maxChans {
				continue
			}
			s.tracked = append(s.tracked, ch)
		}
		s.expiry[ch] = slot + s.dwell
	}
}

// Camper returns the adaptive follower jammer: whenever a channel delivers
// a message, camp on it for dwell slots, tracking at most maxChans
// channels at a time.
func Camper(dwell int64, maxChans int) Factory {
	if dwell < 1 || maxChans < 1 {
		panic("adversary: camper needs dwell ≥ 1 and maxChans ≥ 1")
	}
	return NewFactory(fmt.Sprintf("camper(dwell=%d,max=%d)", dwell, maxChans),
		func(*rng.Source) Strategy {
			return &camper{dwell: dwell, maxChans: maxChans}
		})
}
