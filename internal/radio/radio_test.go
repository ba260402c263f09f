package radio

import (
	"testing"
	"testing/quick"

	"multicast/internal/bitset"
	"multicast/internal/rng"
)

func begin(nw *Network, slot int64, channels int) {
	nw.BeginSlot(slot, channels, nil, 0)
}

func TestSilenceOnEmptyChannel(t *testing.T) {
	nw := NewNetwork(4, 8)
	begin(nw, 0, 8)
	for ch := 0; ch < 8; ch++ {
		fb := nw.Listen(0, ch)
		if fb.Status != Silence {
			t.Fatalf("channel %d: status %v, want silence", ch, fb.Status)
		}
		if fb.Payload != None {
			t.Fatalf("silence carried payload %v", fb.Payload)
		}
	}
	nw.EndSlot()
}

func TestSingleBroadcasterDeliversMessage(t *testing.T) {
	nw := NewNetwork(4, 8)
	begin(nw, 0, 8)
	nw.Broadcast(1, 3, MsgM)
	fb := nw.Listen(0, 3)
	if fb.Status != Message || fb.Payload != MsgM {
		t.Fatalf("got %+v, want message m", fb)
	}
	// Other channels unaffected.
	if fb := nw.Listen(2, 4); fb.Status != Silence {
		t.Fatalf("adjacent channel got %v", fb.Status)
	}
	nw.EndSlot()
}

func TestBeaconDelivery(t *testing.T) {
	nw := NewNetwork(2, 2)
	begin(nw, 0, 2)
	nw.Broadcast(0, 1, Beacon)
	fb := nw.Listen(1, 1)
	if fb.Status != Message || fb.Payload != Beacon {
		t.Fatalf("got %+v, want beacon", fb)
	}
	nw.EndSlot()
}

func TestCollisionIsNoise(t *testing.T) {
	nw := NewNetwork(4, 4)
	begin(nw, 0, 4)
	nw.Broadcast(0, 2, MsgM)
	nw.Broadcast(1, 2, MsgM)
	fb := nw.Listen(2, 2)
	if fb.Status != Noise {
		t.Fatalf("two broadcasters: status %v, want noise", fb.Status)
	}
	if fb.Payload != None {
		t.Fatalf("noise leaked payload %v", fb.Payload)
	}
	nw.EndSlot()
}

func TestCollisionOfDifferentPayloadsIsNoise(t *testing.T) {
	nw := NewNetwork(3, 1)
	begin(nw, 0, 1)
	nw.Broadcast(0, 0, MsgM)
	nw.Broadcast(1, 0, Beacon)
	if fb := nw.Listen(2, 0); fb.Status != Noise {
		t.Fatalf("m+beacon collision: %v, want noise", fb.Status)
	}
	nw.EndSlot()
}

func TestJammingIsNoise(t *testing.T) {
	nw := NewNetwork(2, 4)
	jam := bitset.New(4)
	jam.Set(1)
	nw.BeginSlot(0, 4, jam, 1)
	// Jammed and silent channel → noise.
	if fb := nw.Listen(0, 1); fb.Status != Noise {
		t.Fatalf("jammed empty channel: %v, want noise", fb.Status)
	}
	// Jammed channel with one broadcaster → noise (message destroyed).
	nw.Broadcast(1, 1, MsgM)
	if fb := nw.Listen(0, 1); fb.Status != Noise {
		t.Fatalf("jammed single-broadcaster channel: %v, want noise", fb.Status)
	}
	// Unjammed channel in the same slot still works.
	if fb := nw.Listen(0, 2); fb.Status != Silence {
		t.Fatalf("unjammed channel: %v, want silence", fb.Status)
	}
	nw.EndSlot()
	if nw.EveEnergy() != 1 {
		t.Fatalf("Eve energy = %d, want 1", nw.EveEnergy())
	}
}

func TestCollisionAndJammingIndistinguishable(t *testing.T) {
	// The model says listeners cannot tell collision from jamming: both
	// must yield the identical Feedback value.
	nwA := NewNetwork(3, 1)
	begin(nwA, 0, 1)
	nwA.Broadcast(0, 0, MsgM)
	nwA.Broadcast(1, 0, MsgM)
	collision := nwA.Listen(2, 0)
	nwA.EndSlot()

	nwB := NewNetwork(3, 1)
	jam := bitset.New(1)
	jam.Set(0)
	nwB.BeginSlot(0, 1, jam, 1)
	jammed := nwB.Listen(2, 0)
	nwB.EndSlot()

	if collision != jammed {
		t.Fatalf("collision %+v != jammed %+v", collision, jammed)
	}
}

func TestEnergyAccounting(t *testing.T) {
	nw := NewNetwork(3, 4)
	jam := bitset.New(4)
	jam.Set(0)
	jam.Set(1)
	nw.BeginSlot(0, 4, jam, 2)
	nw.Broadcast(0, 2, MsgM)
	nw.Listen(1, 2)
	nw.Listen(1, 3) // a node listening twice is the engine's bug, but metering still counts
	nw.EndSlot()

	if got := nw.NodeEnergies()[0]; got != 1 {
		t.Errorf("broadcaster energy = %d, want 1", got)
	}
	if got := nw.NodeEnergies()[1]; got != 2 {
		t.Errorf("listener energy = %d, want 2", got)
	}
	if got := nw.NodeEnergies()[2]; got != 0 {
		t.Errorf("idle node energy = %d, want 0", got)
	}
	if got := nw.EveEnergy(); got != 2 {
		t.Errorf("Eve energy = %d, want 2", got)
	}

	// Energy accumulates across slots.
	begin(nw, 1, 4)
	nw.Broadcast(0, 0, MsgM)
	nw.EndSlot()
	if got := nw.NodeEnergies()[0]; got != 2 {
		t.Errorf("cumulative energy = %d, want 2", got)
	}
}

func TestIdlingIsFree(t *testing.T) {
	nw := NewNetwork(2, 2)
	for s := int64(0); s < 100; s++ {
		begin(nw, s, 2)
		nw.EndSlot()
	}
	for id := 0; id < 2; id++ {
		if nw.NodeEnergies()[id] != 0 {
			t.Fatalf("idle node %d charged %d", id, nw.NodeEnergies()[id])
		}
	}
}

func TestChannelStateResetsBetweenSlots(t *testing.T) {
	nw := NewNetwork(2, 2)
	begin(nw, 0, 2)
	nw.Broadcast(0, 1, MsgM)
	nw.EndSlot()
	begin(nw, 1, 2)
	if fb := nw.Listen(1, 1); fb.Status != Silence {
		t.Fatalf("stale broadcast leaked into next slot: %v", fb.Status)
	}
	nw.EndSlot()
}

func TestGrowChannels(t *testing.T) {
	nw := NewNetwork(2, 2)
	begin(nw, 0, 2)
	nw.EndSlot()
	// MultiCastAdv grows the channel count between phases.
	nw.BeginSlot(1, 1024, nil, 0)
	nw.Broadcast(0, 1000, MsgM)
	if fb := nw.Listen(1, 1000); fb.Status != Message {
		t.Fatalf("high channel after grow: %v", fb.Status)
	}
	nw.EndSlot()
	if nw.Channels() != 1024 {
		t.Fatalf("Channels = %d, want 1024", nw.Channels())
	}
}

func TestModelPanics(t *testing.T) {
	cases := map[string]func(){
		"listen outside slot": func() {
			nw := NewNetwork(1, 1)
			nw.Listen(0, 0)
		},
		"broadcast outside slot": func() {
			nw := NewNetwork(1, 1)
			nw.Broadcast(0, 0, MsgM)
		},
		"none payload": func() {
			nw := NewNetwork(1, 1)
			begin(nw, 0, 1)
			nw.Broadcast(0, 0, None)
		},
		"bad node id": func() {
			nw := NewNetwork(1, 1)
			begin(nw, 0, 1)
			nw.Listen(5, 0)
		},
		"bad channel": func() {
			nw := NewNetwork(1, 1)
			begin(nw, 0, 1)
			nw.Listen(0, 3)
		},
		"negative channel": func() {
			nw := NewNetwork(1, 1)
			begin(nw, 0, 1)
			nw.Listen(0, -1)
		},
		"slot does not advance": func() {
			nw := NewNetwork(1, 1)
			begin(nw, 0, 1)
			nw.EndSlot()
			begin(nw, 0, 1)
		},
		"nested BeginSlot": func() {
			nw := NewNetwork(1, 1)
			begin(nw, 0, 1)
			begin(nw, 1, 1)
		},
		"EndSlot without BeginSlot": func() {
			nw := NewNetwork(1, 1)
			nw.EndSlot()
		},
		"zero nodes": func() { NewNetwork(0, 1) },
		"zero channels in slot": func() {
			nw := NewNetwork(1, 1)
			nw.BeginSlot(0, 0, nil, 0)
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStatusAndPayloadStrings(t *testing.T) {
	if Silence.String() != "silence" || Message.String() != "message" || Noise.String() != "noise" {
		t.Error("Status strings wrong")
	}
	if MsgM.String() != "m" || Beacon.String() != "±" || None.String() != "none" {
		t.Error("Payload strings wrong")
	}
	if Status(9).String() == "" || Payload(9).String() == "" {
		t.Error("unknown values must still render")
	}
}

// Property: with k broadcasters on a channel and no jamming, listeners see
// silence iff k==0, the message iff k==1, noise iff k≥2.
func TestQuickResolutionRule(t *testing.T) {
	f := func(k uint8, seed uint64) bool {
		broadcasters := int(k % 8)
		nw := NewNetwork(10, 4)
		begin(nw, 0, 4)
		for i := 0; i < broadcasters; i++ {
			nw.Broadcast(i, 2, MsgM)
		}
		fb := nw.Listen(9, 2)
		nw.EndSlot()
		switch {
		case broadcasters == 0:
			return fb.Status == Silence
		case broadcasters == 1:
			return fb.Status == Message && fb.Payload == MsgM
		default:
			return fb.Status == Noise
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: total node energy equals broadcasts + listens, and Eve energy
// equals the jam counts charged, across a random multi-slot schedule.
func TestQuickEnergyConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const n, c = 8, 16
		nw := NewNetwork(n, c)
		wantNode := int64(0)
		wantEve := int64(0)
		for s := int64(0); s < 50; s++ {
			jam := bitset.New(c)
			jamCount := 0
			for ch := 0; ch < c; ch++ {
				if r.Bernoulli(0.3) {
					jam.Set(ch)
					jamCount++
				}
			}
			nw.BeginSlot(s, c, jam, jamCount)
			wantEve += int64(jamCount)
			for id := 0; id < n; id++ {
				switch r.Intn(3) {
				case 0:
					nw.Broadcast(id, r.Intn(c), MsgM)
					wantNode++
				case 1:
					nw.Listen(id, r.Intn(c))
					wantNode++
				}
			}
			nw.EndSlot()
		}
		var gotNode int64
		for id := 0; id < n; id++ {
			gotNode += nw.NodeEnergies()[id]
		}
		return gotNode == wantNode && nw.EveEnergy() == wantEve
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkResolveSlot(b *testing.B) {
	const n, c = 256, 128
	nw := NewNetwork(n, c)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		nw.BeginSlot(int64(i), c, nil, 0)
		for id := 0; id < 16; id++ {
			nw.Broadcast(id, r.Intn(c), MsgM)
		}
		for id := 16; id < 32; id++ {
			nw.Listen(id, r.Intn(c))
		}
		nw.EndSlot()
	}
}
