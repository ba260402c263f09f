package core

import (
	"math"
	"testing"
	"testing/quick"

	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

func TestMultiCastConstructor(t *testing.T) {
	alg, err := NewMultiCast(Sim(), 512)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "MultiCast" {
		t.Errorf("Name = %q", alg.Name())
	}
	if alg.Channels(0) != 256 {
		t.Errorf("Channels = %d, want 256", alg.Channels(0))
	}
	if _, err := NewMultiCast(Sim(), 48); err == nil {
		t.Error("accepted non-power-of-two n")
	}
}

func TestMultiCastPaperIterationArithmetic(t *testing.T) {
	// Figure 2: Rᵢ = a·i·4ⁱ·lg²n, pᵢ = 2⁻ⁱ, starting at i = 6.
	alg, err := NewMultiCast(Paper(0.1), 256)
	if err != nil {
		t.Fatal(err)
	}
	// R₆ = 1·6·4096·64 = 1,572,864.
	if got := alg.IterationLength(6); got != 1_572_864 {
		t.Errorf("R₆ = %d, want 1572864", got)
	}
	if got := alg.ListenProb(6); got != 1.0/64 {
		t.Errorf("p₆ = %v, want 1/64", got)
	}
	if got := alg.ListenProb(10); got != 1.0/1024 {
		t.Errorf("p₁₀ = %v, want 2⁻¹⁰", got)
	}
}

func TestMultiCastIterationGrowth(t *testing.T) {
	alg, _ := NewMultiCast(Sim(), 256)
	for i := 3; i < 12; i++ {
		ratio := float64(alg.IterationLength(i+1)) / float64(alg.IterationLength(i))
		// Rᵢ₊₁/Rᵢ = 4·(i+1)/i ∈ (4, 5.34].
		if ratio < 4 || ratio > 5.4 {
			t.Errorf("R_%d/R_%d = %v, want ≈ 4·(i+1)/i", i+1, i, ratio)
		}
		if alg.ListenProb(i+1) != alg.ListenProb(i)/2 {
			t.Errorf("p_%d != p_%d/2", i+1, i)
		}
	}
}

func TestMultiCastIterationCapAvoidsOverflow(t *testing.T) {
	alg, _ := NewMultiCast(Sim(), 256)
	l1 := alg.IterationLength(maxIter)
	l2 := alg.IterationLength(maxIter + 10)
	if l1 != l2 {
		t.Errorf("iteration cap not applied: %d vs %d", l1, l2)
	}
	if l1 <= 0 {
		t.Errorf("capped iteration length overflowed: %d", l1)
	}
	if alg.ListenProb(maxIter+10) != alg.ListenProb(maxIter) {
		t.Error("listen probability not capped alongside length")
	}
}

func TestMultiCastNodeStartsAtStartIter(t *testing.T) {
	p := Sim()
	alg, _ := NewMultiCast(p, 64)
	nd := alg.NewNode(0, true, rng.New(1)).(*mcastNode)
	if nd.iter != p.StartIter {
		t.Errorf("start iteration = %d, want %d", nd.iter, p.StartIter)
	}
}

func TestMultiCastAdvancesIterationWhenNoisy(t *testing.T) {
	alg, _ := NewMultiCast(Sim(), 64)
	nd := alg.NewNode(0, true, rng.New(1)).(*mcastNode)
	i0 := nd.iter
	r := alg.IterationLength(i0)
	for s := int64(0); s < r; s++ {
		nd.Step(s)
		nd.Deliver(radio.Feedback{Status: radio.Noise})
		nd.EndSlot(s)
	}
	if nd.Status() == protocol.Halted {
		t.Fatal("halted despite constant noise")
	}
	if nd.iter != i0+1 {
		t.Fatalf("iteration = %d after noisy iteration, want %d", nd.iter, i0+1)
	}
}

func TestMultiCastHaltsWhenQuiet(t *testing.T) {
	alg, _ := NewMultiCast(Sim(), 64)
	nd := alg.NewNode(0, true, rng.New(1))
	r := alg.IterationLength(Sim().StartIter)
	for s := int64(0); s < r; s++ {
		nd.Step(s)
		nd.EndSlot(s)
	}
	if nd.Status() != protocol.Halted {
		t.Fatal("did not halt after quiet first iteration")
	}
}

func TestMultiCastListenRateMatchesIteration(t *testing.T) {
	p := Sim()
	alg, _ := NewMultiCast(p, 64)
	nd := alg.NewNode(0, true, rng.New(42)).(*mcastNode)
	// Track listen rates per iteration while noise keeps the node active;
	// each iteration's rate must match its pᵢ.
	for target := p.StartIter; target <= p.StartIter+2; target++ {
		want := alg.ListenProb(target)
		listens, inIter := 0, 0
		for nd.iter == target {
			s := int64(inIter)
			if nd.Step(s).Kind == protocol.Listen {
				listens++
			}
			nd.Deliver(radio.Feedback{Status: radio.Noise})
			nd.EndSlot(s)
			inIter++
		}
		rate := float64(listens) / float64(inIter)
		// Tolerance scales with the binomial std of the iteration length.
		tol := 5 * math.Sqrt(want/float64(inIter))
		if math.Abs(rate-want) > tol {
			t.Errorf("listen rate in iteration %d = %v over %d slots, want %v ± %v",
				target, rate, inIter, want, tol)
		}
	}
}

// ---------------------------------------------------------------------------
// MultiCast(C)

func TestMultiCastCEffectiveC(t *testing.T) {
	cases := []struct{ n, c, want int }{
		{256, 128, 128}, // C = n/2 exactly
		{256, 200, 128}, // clamped to n/2
		{256, 100, 64},  // rounded down to a power of two
		{256, 1, 1},
		{256, 0, 1},  // floor at 1
		{256, -5, 1}, // floor at 1
		{64, 24, 16},
		{4, 7, 2},
	}
	for _, tc := range cases {
		alg, err := NewMultiCastC(Sim(), tc.n, tc.c)
		if err != nil {
			t.Errorf("NewMultiCastC(%d,%d): %v", tc.n, tc.c, err)
			continue
		}
		if alg.c != tc.want {
			t.Errorf("EffectiveC(n=%d,c=%d) = %d, want %d", tc.n, tc.c, alg.c, tc.want)
		}
		if alg.Channels(12345) != tc.want {
			t.Errorf("Channels ≠ EffectiveC")
		}
		if got := alg.subSlots; got != int64(tc.n/2/tc.want) {
			t.Errorf("RoundLength(n=%d,C=%d) = %d, want %d", tc.n, tc.want, got, tc.n/2/tc.want)
		}
	}
}

func TestMultiCastCName(t *testing.T) {
	alg, _ := NewMultiCastC(Sim(), 64, 8)
	if alg.Name() != "MultiCast(C)" {
		t.Errorf("Name = %q", alg.Name())
	}
}

func TestMultiCastCActsOnlyInOwnSubSlot(t *testing.T) {
	// With n = 64, C = 8: rounds of 4 sub-slots; a node acting on virtual
	// channel ch must act exactly in sub-slot ⌊ch/8⌋ on physical ch mod 8.
	alg, _ := NewMultiCastC(Sim(), 64, 8)
	nd := alg.NewNode(0, true, rng.New(9)).(*mcastCNode)
	sub := alg.subSlots
	actions := 0
	for s := int64(0); s < 40_000; s++ {
		a := nd.Step(s)
		if a.Kind != protocol.Idle {
			actions++
			if a.Channel < 0 || a.Channel >= 8 {
				t.Fatalf("physical channel %d out of range", a.Channel)
			}
			wantSub := int64(nd.virtual / 8)
			if nd.sub != wantSub {
				t.Fatalf("acted in sub-slot %d, want %d (virtual %d)", nd.sub, wantSub, nd.virtual)
			}
			if a.Channel != nd.virtual%8 {
				t.Fatalf("physical channel %d, want %d", a.Channel, nd.virtual%8)
			}
		}
		nd.Deliver(radio.Feedback{Status: radio.Noise}) // stay active
		nd.EndSlot(s)
	}
	if actions == 0 {
		t.Fatal("node never acted")
	}
	_ = sub
}

func TestMultiCastCAtMostOneActionPerRound(t *testing.T) {
	alg, _ := NewMultiCastC(Sim(), 64, 8)
	nd := alg.NewNode(0, true, rng.New(11)).(*mcastCNode)
	sub := alg.subSlots
	for round := 0; round < 5000; round++ {
		acts := 0
		for k := int64(0); k < sub; k++ {
			s := int64(round)*sub + k
			if nd.Step(s).Kind != protocol.Idle {
				acts++
			}
			nd.Deliver(radio.Feedback{Status: radio.Noise})
			nd.EndSlot(s)
		}
		if acts > 1 {
			t.Fatalf("round %d: %d actions, max is 1 (one virtual slot per round)", round, acts)
		}
	}
}

func TestMultiCastCHaltsWhenQuiet(t *testing.T) {
	p := Sim()
	alg, _ := NewMultiCastC(p, 64, 8)
	nd := alg.NewNode(0, true, rng.New(1))
	slots := alg.inner.IterationLength(p.StartIter) * alg.subSlots
	for s := int64(0); s < slots; s++ {
		nd.Step(s)
		nd.EndSlot(s)
	}
	if nd.Status() != protocol.Halted {
		t.Fatal("did not halt after quiet first iteration")
	}
}

func TestMultiCastCUninformedNeverBroadcasts(t *testing.T) {
	alg, _ := NewMultiCastC(Sim(), 64, 8)
	nd := alg.NewNode(1, false, rng.New(13))
	for s := int64(0); s < 50_000; s++ {
		if a := nd.Step(s); a.Kind == protocol.Broadcast {
			t.Fatal("uninformed node broadcast")
		}
		nd.Deliver(radio.Feedback{Status: radio.Noise})
		nd.EndSlot(s)
	}
}

// Property: effective C is always a power of two dividing n/2.
func TestQuickMultiCastCDivisibility(t *testing.T) {
	f := func(nExp uint8, c uint16) bool {
		n := 1 << (2 + nExp%9) // 4 … 1024
		alg, err := NewMultiCastC(Sim(), n, int(c))
		if err != nil {
			return false
		}
		eff := alg.c
		if eff < 1 || eff > n/2 {
			return false
		}
		if eff&(eff-1) != 0 {
			return false
		}
		return (n/2)%eff == 0 && alg.subSlots == int64(n/2/eff)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
