package core

import (
	"math"
	"testing"

	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

// This file cross-validates the production MultiCastCore implementation
// against an independent, deliberately naive transcription of Figure 1:
// integer coins (coin ← rnd(1, 1/p)), unconditional channel draws, and a
// from-scratch channel resolver. The two implementations share no code
// paths beyond the rng package, so statistical agreement of their
// informing/halting dynamics pins the production code to the pseudocode.

// oracleResult mirrors the metrics the comparison needs.
type oracleResult struct {
	allInformed int64
	halted      int64
	maxEnergy   int64
}

// runOracle executes Figure 1 literally for n nodes with no adversary.
func runOracle(params Params, n int, seed uint64, maxSlots int64) oracleResult {
	root := rng.New(seed)
	type node struct {
		r        *rng.Source
		informed bool
		halted   bool
		noisy    int64
		energy   int64
	}
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = &node{r: root.Fork()}
	}
	nodes[0].informed = true

	channels := n / 2
	coinSides := int(math.Round(1 / params.CoreP)) // Figure 1: rnd(1, 64)
	tHat := int64(n)
	iterLen := ceilPos(params.CoreA * lgf(tHat))
	haltMax := params.HaltRatio * params.CoreP * float64(iterLen)

	res := oracleResult{allInformed: -1, halted: -1}
	bcastCount := make([]int, channels)
	listeners := make([][]int, channels)

	slotInIter := int64(0)
	for slot := int64(0); slot < maxSlots; slot++ {
		for ch := 0; ch < channels; ch++ {
			bcastCount[ch] = 0
			listeners[ch] = listeners[ch][:0]
		}
		// Figure 1 lines 6–14: unconditional ch ← rnd(1, channels) and
		// coin ← rnd(1, coinSides) draws, ch taken 0-based.
		for id, nd := range nodes {
			if nd.halted {
				continue
			}
			ch := nd.r.Intn(channels)
			coin := 1 + nd.r.Intn(coinSides)
			if coin == 1 {
				listeners[ch] = append(listeners[ch], id)
				nd.energy++
			} else if coin == 2 && nd.informed {
				bcastCount[ch]++
				nd.energy++
			}
		}
		// Resolve: 0 broadcasters → silence, 1 → message, ≥2 → noise.
		for ch := 0; ch < channels; ch++ {
			for _, id := range listeners[ch] {
				switch {
				case bcastCount[ch] == 1:
					nodes[id].informed = true
				case bcastCount[ch] >= 2:
					nodes[id].noisy++
				}
			}
		}
		// End of slot / iteration bookkeeping.
		slotInIter++
		if slotInIter == iterLen {
			slotInIter = 0
			for _, nd := range nodes {
				if nd.halted {
					continue
				}
				if float64(nd.noisy) < haltMax {
					nd.halted = true
				}
				nd.noisy = 0
			}
		}
		allInformed, allHalted := true, true
		for _, nd := range nodes {
			if !nd.informed {
				allInformed = false
			}
			if !nd.halted {
				allHalted = false
			}
		}
		if allInformed && res.allInformed < 0 {
			res.allInformed = slot + 1
		}
		if allHalted {
			res.halted = slot + 1
			break
		}
	}
	for _, nd := range nodes {
		if nd.energy > res.maxEnergy {
			res.maxEnergy = nd.energy
		}
	}
	return res
}

// runProduction executes the production implementation with a minimal
// in-test driver (no engine), so the comparison isolates the node logic.
func runProduction(t *testing.T, params Params, n int, seed uint64, maxSlots int64) oracleResult {
	t.Helper()
	alg, err := NewMultiCastCore(params, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(seed + 10_000) // distinct stream: comparison is statistical
	nodes := make([]protocol.Node, n)
	energy := make([]int64, n)
	for i := range nodes {
		nodes[i] = alg.NewNode(i, i == 0, root.Fork())
	}
	channels := alg.Channels(0)
	bcastCount := make([]int, channels)
	listeners := make([][]int, channels)

	res := oracleResult{allInformed: -1, halted: -1}
	active := true
	for slot := int64(0); slot < maxSlots && active; slot++ {
		for ch := 0; ch < channels; ch++ {
			bcastCount[ch] = 0
			listeners[ch] = listeners[ch][:0]
		}
		for id, nd := range nodes {
			if nd.Status() == protocol.Halted {
				continue
			}
			switch a := nd.Step(slot); a.Kind {
			case protocol.Broadcast:
				bcastCount[a.Channel]++
				energy[id]++
			case protocol.Listen:
				listeners[a.Channel] = append(listeners[a.Channel], id)
				energy[id]++
			}
		}
		for ch := 0; ch < channels; ch++ {
			for _, id := range listeners[ch] {
				switch {
				case bcastCount[ch] == 1:
					nodes[id].Deliver(radioMessage())
				case bcastCount[ch] >= 2:
					nodes[id].Deliver(radioNoise())
				default:
					nodes[id].Deliver(radioSilence())
				}
			}
		}
		allInformed, allHalted := true, true
		for _, nd := range nodes {
			if nd.Status() != protocol.Halted {
				nd.EndSlot(slot)
			}
			if !nd.Informed() {
				allInformed = false
			}
			if nd.Status() != protocol.Halted {
				allHalted = false
			}
		}
		if allInformed && res.allInformed < 0 {
			res.allInformed = slot + 1
		}
		if allHalted {
			res.halted = slot + 1
			active = false
		}
	}
	for _, e := range energy {
		if e > res.maxEnergy {
			res.maxEnergy = e
		}
	}
	return res
}

func radioMessage() radio.Feedback {
	return radio.Feedback{Status: radio.Message, Payload: radio.MsgM}
}
func radioNoise() radio.Feedback   { return radio.Feedback{Status: radio.Noise} }
func radioSilence() radio.Feedback { return radio.Feedback{Status: radio.Silence} }

func TestOracleAgreementMultiCastCore(t *testing.T) {
	const (
		n        = 64
		trials   = 40
		maxSlots = 1 << 20
	)
	params := Sim()

	var oInformed, pInformed, oHalt, pHalt, oEnergy, pEnergy float64
	for s := uint64(1); s <= trials; s++ {
		o := runOracle(params, n, s, maxSlots)
		p := runProduction(t, params, n, s, maxSlots)
		if o.allInformed < 0 || p.allInformed < 0 || o.halted < 0 || p.halted < 0 {
			t.Fatalf("seed %d: a run did not finish (oracle %+v, production %+v)", s, o, p)
		}
		oInformed += float64(o.allInformed)
		pInformed += float64(p.allInformed)
		oHalt += float64(o.halted)
		pHalt += float64(p.halted)
		oEnergy += float64(o.maxEnergy)
		pEnergy += float64(p.maxEnergy)
	}
	check := func(name string, a, b float64) {
		rel := math.Abs(a-b) / math.Max(a, b)
		if rel > 0.15 {
			t.Errorf("%s diverges: oracle mean %.1f vs production %.1f (%.0f%%)",
				name, a/trials, b/trials, rel*100)
		} else {
			t.Logf("%s: oracle mean %.1f, production mean %.1f", name, a/trials, b/trials)
		}
	}
	check("all-informed slot", oInformed, pInformed)
	check("halt slot", oHalt, pHalt)
	check("max node energy", oEnergy, pEnergy)
}
