package sim

import (
	"fmt"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/bitset"
	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

// obsChannels is the scripted network's channel count.
const obsChannels = 6

// obsSlot is one scripted slot: how many nodes broadcast on each
// channel, which channels Eve jams, and the activity she must then
// observe.
type obsSlot struct {
	senders [obsChannels]int
	jammed  []int
	want    [obsChannels]adversary.Activity
}

const (
	quiet     = adversary.Quiet
	delivered = adversary.Delivered
	collided  = adversary.Collided
	jammed    = adversary.Jammed
)

// obsSlots covers 0, 1 and 2 broadcasters, each jammed and unjammed, and
// moves every shape to another channel from slot to slot, so state left
// over from an earlier slot shows up as a wrong answer.
var obsSlots = []obsSlot{
	{
		senders: [obsChannels]int{0, 1, 2, 0, 1, 2},
		jammed:  []int{3, 4, 5},
		want:    [obsChannels]adversary.Activity{quiet, delivered, collided, jammed, jammed, jammed},
	},
	{
		senders: [obsChannels]int{2, 0, 1, 2, 0, 1},
		jammed:  []int{0, 1, 2},
		want:    [obsChannels]adversary.Activity{jammed, jammed, jammed, collided, quiet, delivered},
	},
	{
		senders: [obsChannels]int{1, 2, 0, 0, 2, 1},
		want:    [obsChannels]adversary.Activity{delivered, collided, quiet, quiet, collided, delivered},
	},
	{
		senders: [obsChannels]int{0, 0, 1, 0, 0, 0},
		jammed:  []int{5},
		want:    [obsChannels]adversary.Activity{quiet, quiet, delivered, quiet, quiet, jammed},
	},
	{
		senders: [obsChannels]int{0, 2, 0, 1, 0, 0},
		want:    [obsChannels]adversary.Activity{quiet, collided, quiet, delivered, quiet, quiet},
	},
}

// obsNodes runs every slot's senders plus at least one listener per
// channel: at most six senders per slot, and the other six nodes listen.
const obsNodes = 12

// obsActions expands slot s of obsSlots into one action per node:
// senders first, in ascending id, their payload alternating by id
// parity; every remaining node listens, cycling over the channels.
func obsActions(s int) [obsNodes]protocol.Action {
	var acts [obsNodes]protocol.Action
	id := 0
	for ch, k := range obsSlots[s].senders {
		for ; k > 0; k-- {
			payload := radio.MsgM
			if id%2 == 0 {
				payload = radio.Beacon
			}
			acts[id] = protocol.Action{Kind: protocol.Broadcast, Channel: ch, Payload: payload}
			id++
		}
	}
	for ch := 0; id < obsNodes; id, ch = id+1, (ch+1)%obsChannels {
		acts[id] = protocol.Action{Kind: protocol.Listen, Channel: ch}
	}
	return acts
}

// obsFeedback is what radio.Listen answers a listener on ch in slot s.
func obsFeedback(s, ch int) radio.Feedback {
	sl := obsSlots[s]
	for _, j := range sl.jammed {
		if j == ch {
			return radio.Feedback{Status: radio.Noise}
		}
	}
	switch sl.senders[ch] {
	case 0:
		return radio.Feedback{Status: radio.Silence}
	case 1:
		acts := obsActions(s)
		for _, a := range acts {
			if a.Kind == protocol.Broadcast && a.Channel == ch {
				return radio.Feedback{Status: radio.Message, Payload: a.Payload}
			}
		}
		panic("unreachable")
	default:
		return radio.Feedback{Status: radio.Noise}
	}
}

// scriptAlg runs obsSlots: every node acts in every slot, records the
// feedback it hears, and halts at the end of the last scripted slot.
type scriptAlg struct {
	heard *[][obsNodes]radio.Feedback // heard[slot][id]; Status is Silence until delivered
}

func (a *scriptAlg) Name() string            { return "script" }
func (a *scriptAlg) Channels(slot int64) int { return obsChannels }
func (a *scriptAlg) NewNode(id int, source bool, r *rng.Source) protocol.Node {
	return &scriptNode{id: id, heard: a.heard, status: protocol.Informed}
}

type scriptNode struct {
	id     int
	heard  *[][obsNodes]radio.Feedback
	status protocol.Status
	slot   int64
}

func (n *scriptNode) Step(slot int64) protocol.Action {
	n.slot = slot
	return obsActions(int(slot))[n.id]
}

func (n *scriptNode) Deliver(fb radio.Feedback) { (*n.heard)[n.slot][n.id] = fb }

func (n *scriptNode) EndSlot(slot int64) {
	if slot == int64(len(obsSlots))-1 {
		n.status = protocol.Halted
	}
}

func (n *scriptNode) Status() protocol.Status { return n.status }
func (n *scriptNode) Informed() bool          { return true }

// scriptEve jams each slot's scripted channels.
type scriptEve struct{}

func (scriptEve) Name() string { return "script-eve" }

func (scriptEve) Fill(slot int64, channels int, mask *bitset.Set) int {
	if slot >= int64(len(obsSlots)) {
		return 0
	}
	for _, ch := range obsSlots[slot].jammed {
		mask.Set(ch)
	}
	return len(obsSlots[slot].jammed)
}

// recordingEve is scriptEve made adaptive: it keeps a copy of every
// activity slice the engine hands it.
type recordingEve struct {
	scriptEve
	seen *[][]adversary.Activity
}

func (e recordingEve) Observe(slot int64, activity []adversary.Activity) {
	if int64(len(*e.seen)) != slot {
		panic(fmt.Sprintf("Observe(%d) after %d observations", slot, len(*e.seen)))
	}
	*e.seen = append(*e.seen, append([]adversary.Activity(nil), activity...))
}

// TestAdaptiveObservationAndFeedback pins, on both engines, what a slot
// reports: the per-channel Activity an adaptive Eve receives (Quiet,
// Delivered, Collided, or Jammed whatever else happened), and the
// feedback each listener hears (silence, the lone sender's payload, or
// noise). Engine equivalence alone cannot catch a wrong answer here:
// both engines share observe and the node code. The oblivious Eve puts
// the event engine on its lean step, the adaptive one on stepSlot.
func TestAdaptiveObservationAndFeedback(t *testing.T) {
	for _, engine := range []Engine{EngineDense, EngineEvent} {
		for _, adaptive := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/adaptive=%v", engine, adaptive), func(t *testing.T) {
				heard := make([][obsNodes]radio.Feedback, len(obsSlots))
				var seen [][]adversary.Activity
				var eve adversary.Strategy = scriptEve{}
				if adaptive {
					eve = recordingEve{seen: &seen}
				}
				m, err := Run(Config{
					N:         obsNodes,
					Algorithm: func() (protocol.Algorithm, error) { return &scriptAlg{heard: &heard}, nil },
					Adversary: adversary.NewFactory(eve.Name(), func(*rng.Source) adversary.Strategy { return eve }),
					Budget:    1 << 20,
					Engine:    engine,
				})
				if err != nil {
					t.Fatal(err)
				}
				if m.Slots != int64(len(obsSlots)) {
					t.Fatalf("ran %d slots, script has %d", m.Slots, len(obsSlots))
				}
				for s := range obsSlots {
					acts := obsActions(s)
					for id, a := range acts {
						if a.Kind != protocol.Listen {
							continue
						}
						if got, want := heard[s][id], obsFeedback(s, a.Channel); got != want {
							t.Errorf("slot %d: listener %d on channel %d heard %+v, want %+v", s, id, a.Channel, got, want)
						}
					}
				}
				if !adaptive {
					return
				}
				if len(seen) != len(obsSlots) {
					t.Fatalf("Eve observed %d slots, want %d", len(seen), len(obsSlots))
				}
				for s, sl := range obsSlots {
					if got := seen[s]; len(got) != obsChannels || [obsChannels]adversary.Activity(got) != sl.want {
						t.Errorf("slot %d: Eve observed %v, want %v", s, got, sl.want)
					}
				}
			})
		}
	}
}

// TestLeanTallyKeepsFirstPayload pins the lean step's tally contents:
// the broadcaster count and the first-registered payload per channel,
// as radio.Network keeps them, and all zero again after the slot. A
// collided channel's payload is never delivered, so only this white-box
// check sees which payload the tally kept.
func TestLeanTallyKeepsFirstPayload(t *testing.T) {
	var ex execution
	bcasts := []pendingBroadcast{
		{id: 1, ch: 2, payload: radio.Beacon},
		{id: 3, ch: 2, payload: radio.MsgM},
		{id: 4, ch: 0, payload: radio.MsgM},
	}
	tally := ex.tallyBroadcasts(bcasts, 4)
	want := []chanTally{{count: 1, payload: radio.MsgM}, {}, {count: 2, payload: radio.Beacon}, {}}
	for ch, w := range want {
		if tally[ch] != w {
			t.Errorf("channel %d tallied %+v, want %+v", ch, tally[ch], w)
		}
	}
	untallyBroadcasts(tally, bcasts)
	for ch, e := range ex.tally {
		if e != (chanTally{}) {
			t.Errorf("channel %d still tallied %+v after the slot", ch, e)
		}
	}
}
