package singlechan

import (
	"testing"

	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

// BenchmarkNodeStep measures one informed node's Step+EndSlot cost (the
// engine hot path), as internal/core's BenchmarkNodeStep* do for the
// multi-channel nodes.
func BenchmarkNodeStep(b *testing.B) {
	alg, err := New(DefaultParams(), 256)
	if err != nil {
		b.Fatal(err)
	}
	nd := alg.NewNode(0, true, rng.New(1))
	fb := radio.Feedback{Status: radio.Noise}
	for i := 0; i < b.N; i++ {
		slot := int64(i)
		if a := nd.Step(slot); a.Kind == protocol.Listen {
			nd.Deliver(fb) // noise keeps the node from halting
		}
		nd.EndSlot(slot)
		if nd.Status() == protocol.Halted {
			b.Fatal("node halted mid-benchmark despite constant noise")
		}
	}
}
