package adversary

import (
	"math"
	"testing"
	"testing/quick"

	"multicast/internal/bitset"
	"multicast/internal/rng"
)

func fill(t *testing.T, f Factory, slot int64, channels int) (*bitset.Set, int) {
	t.Helper()
	mask := bitset.New(channels)
	s := f.New(rng.New(1))
	n := s.Fill(slot, channels, mask)
	if got := mask.Count(); got != n {
		t.Fatalf("%s: Fill returned %d but mask has %d bits", s.Name(), n, got)
	}
	return mask, n
}

func TestNone(t *testing.T) {
	mask, n := fill(t, None(), 5, 64)
	if n != 0 || mask.Count() != 0 {
		t.Fatal("None jammed channels")
	}
}

func TestFullBurst(t *testing.T) {
	f := FullBurst(10)
	if _, n := fill(t, f, 9, 32); n != 0 {
		t.Fatal("full burst jammed before start")
	}
	mask, n := fill(t, f, 10, 32)
	if n != 32 {
		t.Fatalf("full burst jammed %d of 32", n)
	}
	for ch := 0; ch < 32; ch++ {
		if !mask.Test(ch) {
			t.Fatalf("channel %d not jammed", ch)
		}
	}
}

func TestBlockFraction(t *testing.T) {
	cases := []struct {
		f        float64
		channels int
		want     int
	}{
		{0, 64, 0},
		{0.5, 64, 32},
		{0.9, 64, 58}, // ceil(57.6)
		{1.0, 64, 64},
		{1.5, 64, 64}, // clamped
		{0.1, 3, 1},   // ceil(0.3)
	}
	for _, tc := range cases {
		_, n := fill(t, BlockFraction(tc.f), 0, tc.channels)
		if n != tc.want {
			t.Errorf("BlockFraction(%v) on %d channels jammed %d, want %d", tc.f, tc.channels, n, tc.want)
		}
	}
}

func TestBlockFractionDeterministicAcrossSlots(t *testing.T) {
	s := BlockFraction(0.25).New(rng.New(7))
	for slot := int64(0); slot < 10; slot++ {
		mask := bitset.New(16)
		if n := s.Fill(slot, 16, mask); n != 4 {
			t.Fatalf("slot %d jammed %d, want 4", slot, n)
		}
	}
}

func TestRandomFractionRate(t *testing.T) {
	s := RandomFraction(0.3).New(rng.New(99))
	total := 0
	const slots, channels = 2000, 64
	for slot := int64(0); slot < slots; slot++ {
		mask := bitset.New(channels)
		total += s.Fill(slot, channels, mask)
	}
	got := float64(total) / float64(slots*channels)
	if got < 0.27 || got > 0.33 {
		t.Fatalf("random fraction rate = %v, want ~0.3", got)
	}
}

func TestRandomFractionObliviousReplay(t *testing.T) {
	// Same stream seed → identical jam schedule (obliviousness means the
	// schedule is fixed before execution).
	a := RandomFraction(0.5).New(rng.New(5))
	b := RandomFraction(0.5).New(rng.New(5))
	for slot := int64(0); slot < 50; slot++ {
		ma, mb := bitset.New(32), bitset.New(32)
		a.Fill(slot, 32, ma)
		b.Fill(slot, 32, mb)
		for ch := 0; ch < 32; ch++ {
			if ma.Test(ch) != mb.Test(ch) {
				t.Fatalf("slot %d channel %d differs between replays", slot, ch)
			}
		}
	}
}

func TestSweepRotatesAndWraps(t *testing.T) {
	s := Sweep(4).New(rng.New(1))
	mask := bitset.New(8)
	if n := s.Fill(0, 8, mask); n != 4 {
		t.Fatalf("sweep width = %d, want 4", n)
	}
	for _, ch := range []int{0, 1, 2, 3} {
		if !mask.Test(ch) {
			t.Fatalf("slot 0: channel %d not jammed", ch)
		}
	}
	mask.Reset()
	s.Fill(6, 8, mask) // window [6,7,0,1]
	for _, ch := range []int{6, 7, 0, 1} {
		if !mask.Test(ch) {
			t.Fatalf("slot 6: channel %d not jammed (wrap)", ch)
		}
	}
	for _, ch := range []int{2, 3, 4, 5} {
		if mask.Test(ch) {
			t.Fatalf("slot 6: channel %d spuriously jammed", ch)
		}
	}
}

func TestSweepWidthClamped(t *testing.T) {
	_, n := fill(t, Sweep(100), 0, 8)
	if n != 8 {
		t.Fatalf("sweep jammed %d of 8", n)
	}
}

func TestPulseDutyCycle(t *testing.T) {
	f := Pulse(10, 3, 1.0, 0)
	s := f.New(rng.New(1))
	for slot := int64(0); slot < 40; slot++ {
		mask := bitset.New(16)
		n := s.Fill(slot, 16, mask)
		inDuty := slot%10 < 3
		if inDuty && n != 16 {
			t.Fatalf("slot %d in duty jammed %d", slot, n)
		}
		if !inDuty && n != 0 {
			t.Fatalf("slot %d off duty jammed %d", slot, n)
		}
	}
}

func TestPulseStopAfter(t *testing.T) {
	s := Pulse(4, 4, 0.5, 100).New(rng.New(1))
	mask := bitset.New(16)
	if n := s.Fill(99, 16, mask); n == 0 {
		t.Fatal("pulse silent before stopAfter")
	}
	mask.Reset()
	if n := s.Fill(100, 16, mask); n != 0 {
		t.Fatal("pulse active at stopAfter")
	}
	mask.Reset()
	if n := s.Fill(1_000_000, 16, mask); n != 0 {
		t.Fatal("pulse active long after stopAfter")
	}
}

func TestPulseValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero period":   func() { Pulse(0, 0, 1, 0) },
		"negative duty": func() { Pulse(10, -1, 1, 0) },
		"duty > period": func() { Pulse(10, 11, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWindowed(t *testing.T) {
	// Jam only even slots.
	f := Windowed("even-only", FullBurst(0), func(slot int64) bool { return slot%2 == 0 })
	s := f.New(rng.New(1))
	for slot := int64(0); slot < 10; slot++ {
		mask := bitset.New(8)
		n := s.Fill(slot, 8, mask)
		if slot%2 == 0 && n != 8 {
			t.Fatalf("even slot %d jammed %d", slot, n)
		}
		if slot%2 == 1 && n != 0 {
			t.Fatalf("odd slot %d jammed %d", slot, n)
		}
	}
	if s.Name() != "even-only" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestStopAfter(t *testing.T) {
	s := StopAfter(FullBurst(0), 5).New(rng.New(1))
	mask := bitset.New(4)
	if n := s.Fill(4, 4, mask); n != 4 {
		t.Fatal("StopAfter silent too early")
	}
	mask.Reset()
	if n := s.Fill(5, 4, mask); n != 0 {
		t.Fatal("StopAfter still jamming at stop slot")
	}
}

func TestTruncate(t *testing.T) {
	mask := bitset.New(16)
	mask.SetRange(0, 10)
	got := Truncate(mask, 16, 10, 4)
	if got != 4 || mask.Count() != 4 {
		t.Fatalf("Truncate → %d bits (reported %d), want 4", mask.Count(), got)
	}
	// Keeps the lowest channels (clears from the top).
	for ch := 0; ch < 4; ch++ {
		if !mask.Test(ch) {
			t.Fatalf("Truncate cleared low channel %d", ch)
		}
	}
	for ch := 4; ch < 16; ch++ {
		if mask.Test(ch) {
			t.Fatalf("Truncate left high channel %d", ch)
		}
	}
}

func TestTruncateNoopWhenWithinBudget(t *testing.T) {
	mask := bitset.New(8)
	mask.Set(1)
	mask.Set(7)
	if got := Truncate(mask, 8, 2, 5); got != 2 || mask.Count() != 2 {
		t.Fatal("Truncate modified a within-budget mask")
	}
}

func TestTruncateToZero(t *testing.T) {
	mask := bitset.New(8)
	mask.SetRange(0, 8)
	if got := Truncate(mask, 8, 8, 0); got != 0 || mask.Count() != 0 {
		t.Fatal("Truncate to zero failed")
	}
	mask.SetRange(0, 8)
	if got := Truncate(mask, 8, 8, -3); got != 0 {
		t.Fatal("negative keep must clamp to zero")
	}
}

// Property: Truncate never increases the count and result ≤ keep.
func TestQuickTruncate(t *testing.T) {
	f := func(bitsIn []bool, keep uint8) bool {
		channels := len(bitsIn)
		if channels == 0 {
			return true
		}
		mask := bitset.New(channels)
		count := 0
		for i, b := range bitsIn {
			if b {
				mask.Set(i)
				count++
			}
		}
		got := Truncate(mask, channels, count, int(keep))
		if got != mask.Count() {
			return false
		}
		return got <= count && (got <= int(keep) || count <= int(keep))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every built-in strategy respects the channel bound and reports
// its count correctly for arbitrary slots and channel counts.
func TestQuickStrategiesConsistent(t *testing.T) {
	factories := []Factory{
		None(), FullBurst(0), FullBurst(100), BlockFraction(0.37),
		RandomFraction(0.5), Sweep(7), Pulse(13, 5, 0.8, 200),
	}
	f := func(slotRaw uint16, chRaw uint8, seed uint64) bool {
		slot := int64(slotRaw)
		channels := 1 + int(chRaw)%256
		for _, fac := range factories {
			s := fac.New(rng.New(seed))
			mask := bitset.New(channels)
			n := s.Fill(slot, channels, mask)
			if n != mask.Count() || n > channels {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFactoryNames(t *testing.T) {
	for _, fac := range []Factory{
		None(), FullBurst(3), BlockFraction(0.9), RandomFraction(0.1),
		Sweep(2), Pulse(8, 2, 0.5, 99),
	} {
		if fac.Name() == "" {
			t.Error("factory with empty name")
		}
		if fac.New(rng.New(1)).Name() == "" {
			t.Error("strategy with empty name")
		}
	}
}

func TestBurstyAlternates(t *testing.T) {
	s := Bursty(1.0, 50, 50).New(rng.New(3))
	on, off := 0, 0
	const slots = 5000
	for slot := int64(0); slot < slots; slot++ {
		mask := bitset.New(16)
		if n := s.Fill(slot, 16, mask); n > 0 {
			if n != 16 {
				t.Fatalf("bursty jammed %d of 16 during a burst", n)
			}
			on++
		} else {
			off++
		}
	}
	// Mean on == mean off → roughly half the slots jammed.
	frac := float64(on) / slots
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("bursty on-fraction = %v, want ~0.5", frac)
	}
	if on == 0 || off == 0 {
		t.Fatal("bursty never alternated")
	}
}

func TestBurstyStartsOn(t *testing.T) {
	s := Bursty(1.0, 100, 100).New(rng.New(1))
	mask := bitset.New(8)
	if n := s.Fill(0, 8, mask); n != 8 {
		t.Fatalf("first slot not jammed (n=%d); bursts must start immediately", n)
	}
}

func TestBurstyFractionWithinBurst(t *testing.T) {
	s := Bursty(0.25, 1000000, 1).New(rng.New(9))
	mask := bitset.New(64)
	if n := s.Fill(0, 64, mask); n != 16 {
		t.Fatalf("burst jam count = %d, want 16 (25%% of 64)", n)
	}
}

func TestGeometricDurationUnbiased(t *testing.T) {
	// The closed-form draw must reproduce the geometric mean without the
	// old loop's 2²⁰ cap, which truncated (and so biased) long bursts.
	r := rng.New(21)
	for _, mean := range []float64{1, 2, 64, 4096, 1 << 21} {
		const draws = 50_000
		var sum float64
		var max int64
		for i := 0; i < draws; i++ {
			d := geometric(r, mean)
			if d < 1 {
				t.Fatalf("geometric(mean=%v) = %d < 1", mean, d)
			}
			if d > max {
				max = d
			}
			sum += float64(d)
		}
		got := sum / draws
		// Duration = 1 + Geometric(1/mean): mean is `mean`, std ≈ mean.
		tol := 5 * mean / math.Sqrt(draws)
		if math.Abs(got-mean) > tol {
			t.Errorf("geometric(mean=%v) sample mean = %.2f, want %.2f ± %.2f", mean, got, mean, tol)
		}
		// At mean = 2²¹ the longest of 50k draws exceeds the old 2²⁰ cap
		// except with probability ≈ (1−e^{−1/2})^50000 ≈ 0: the capped
		// loop could never produce this, so the assertion pins its removal.
		if mean > 1<<20 && max <= 1<<20 {
			t.Errorf("geometric(mean=%v) max duration %d never exceeded the old 2^20 cap", mean, max)
		}
	}
}

func TestBurstyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bursty with mean < 1 did not panic")
		}
	}()
	Bursty(0.5, 0, 10)
}

func TestBurstyDeterministicReplay(t *testing.T) {
	a := Bursty(0.5, 20, 20).New(rng.New(5))
	b := Bursty(0.5, 20, 20).New(rng.New(5))
	for slot := int64(0); slot < 500; slot++ {
		ma, mb := bitset.New(8), bitset.New(8)
		if a.Fill(slot, 8, ma) != b.Fill(slot, 8, mb) {
			t.Fatalf("bursty replay diverged at slot %d", slot)
		}
	}
}
