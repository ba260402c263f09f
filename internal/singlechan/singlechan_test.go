package singlechan

import (
	"math"
	"testing"

	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

func TestConstructor(t *testing.T) {
	alg, err := New(DefaultParams(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() == "" {
		t.Error("empty name")
	}
	if alg.Channels(0) != 1 || alg.Channels(1<<40) != 1 {
		t.Error("baseline must use exactly one channel")
	}
	if alg.start != 4 { // ⌈lg₄ 256⌉ = ⌈8/2⌉
		t.Errorf("StartEpoch = %d, want 4", alg.start)
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := New(DefaultParams(), 100); err == nil {
		t.Error("accepted non-power-of-two n")
	}
	if _, err := New(Params{A: 0, HaltNoise: 0.3}, 64); err == nil {
		t.Error("accepted A = 0")
	}
	if _, err := New(Params{A: 1, HaltNoise: 1.5}, 64); err == nil {
		t.Error("accepted HaltNoise ≥ 1")
	}
}

func TestEpochGeometry(t *testing.T) {
	alg, _ := New(DefaultParams(), 256)
	// Lᵢ = ⌈A·4ⁱ·lg n⌉ quadruples per epoch.
	for i := alg.start; i < alg.start+6; i++ {
		ratio := float64(alg.EpochLength(i+1)) / float64(alg.EpochLength(i))
		if math.Abs(ratio-4) > 0.01 {
			t.Errorf("L_%d/L_%d = %v, want 4", i+1, i, ratio)
		}
	}
	// First epoch is Ω(n): L_{i₀} = 4^{⌈lg₄ n⌉}·lg n ≥ n·lg n / 4.
	if got := alg.EpochLength(alg.start); got < 256*8/4 {
		t.Errorf("first epoch length %d too small", got)
	}
}

func TestEpochCap(t *testing.T) {
	alg, _ := New(DefaultParams(), 64)
	if alg.EpochLength(maxEpoch) != alg.EpochLength(maxEpoch+5) {
		t.Error("epoch cap not applied")
	}
	if alg.EpochLength(maxEpoch) <= 0 {
		t.Error("capped epoch length overflowed")
	}
}

func TestListenProbShape(t *testing.T) {
	alg, _ := New(DefaultParams(), 256)
	i0 := alg.start
	// lᵢ = √(lg n/(n·Lᵢ)) halves per epoch (Lᵢ quadruples).
	for i := i0; i < i0+5; i++ {
		r := alg.ListenProb(i) / alg.ListenProb(i+1)
		if math.Abs(r-2) > 0.02 {
			t.Errorf("l_%d/l_%d = %v, want 2", i, i+1, r)
		}
	}
	// Expected broadcasters per slot n·bᵢ ≤ 1 from the first epoch on.
	if load := float64(256) * alg.BroadcastProb(i0); load > 1.01 {
		t.Errorf("aggregate broadcast load %v > 1 in first epoch", load)
	}
	// Listeners are boosted by a constant relative to broadcasters.
	if r := alg.ListenProb(i0) / alg.BroadcastProb(i0); math.Abs(r-DefaultParams().ListenBoost) > 0.01 {
		t.Errorf("listen/broadcast ratio %v, want ListenBoost %v", r, DefaultParams().ListenBoost)
	}
}

func TestSourceInformed(t *testing.T) {
	alg, _ := New(DefaultParams(), 64)
	src := alg.NewNode(0, true, rng.New(1))
	other := alg.NewNode(1, false, rng.New(2))
	if !src.Informed() || other.Informed() {
		t.Fatal("initial informedness wrong")
	}
}

func TestUninformedNeverBroadcasts(t *testing.T) {
	alg, _ := New(DefaultParams(), 64)
	nd := alg.NewNode(1, false, rng.New(3))
	for s := int64(0); s < 100_000; s++ {
		if nd.Step(s).Kind == protocol.Broadcast {
			t.Fatal("uninformed node broadcast")
		}
		nd.Deliver(radio.Feedback{Status: radio.Noise})
		nd.EndSlot(s)
	}
}

func TestAllActionsOnChannelZero(t *testing.T) {
	alg, _ := New(DefaultParams(), 64)
	nd := alg.NewNode(0, true, rng.New(4))
	for s := int64(0); s < 50_000; s++ {
		if a := nd.Step(s); a.Kind != protocol.Idle && a.Channel != 0 {
			t.Fatalf("action on channel %d, baseline has only channel 0", a.Channel)
		}
		nd.Deliver(radio.Feedback{Status: radio.Noise})
		nd.EndSlot(s)
	}
}

func TestHaltsWhenQuiet(t *testing.T) {
	alg, _ := New(DefaultParams(), 64)
	nd := alg.NewNode(0, true, rng.New(5))
	l := alg.EpochLength(alg.start)
	for s := int64(0); s < l && nd.Status() != protocol.Halted; s++ {
		nd.Step(s)
		nd.EndSlot(s)
	}
	if nd.Status() != protocol.Halted {
		t.Fatal("did not halt after a quiet epoch")
	}
}

func TestAdvancesEpochWhenNoisy(t *testing.T) {
	alg, _ := New(DefaultParams(), 64)
	nd := alg.NewNode(0, true, rng.New(6)).(*node)
	i0 := nd.epoch
	l := alg.EpochLength(i0)
	for s := int64(0); s < l; s++ {
		nd.Step(s)
		nd.Deliver(radio.Feedback{Status: radio.Noise})
		nd.EndSlot(s)
	}
	if nd.Status() == protocol.Halted {
		t.Fatal("halted despite constant noise")
	}
	if nd.epoch != i0+1 {
		t.Fatalf("epoch = %d, want %d", nd.epoch, i0+1)
	}
}

func TestInformedOnMessage(t *testing.T) {
	alg, _ := New(DefaultParams(), 64)
	nd := alg.NewNode(1, false, rng.New(7))
	nd.Deliver(radio.Feedback{Status: radio.Message, Payload: radio.MsgM})
	if !nd.Informed() {
		t.Fatal("message did not inform")
	}
}
