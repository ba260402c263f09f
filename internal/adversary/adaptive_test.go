package adversary

import (
	"testing"

	"multicast/internal/bitset"
	"multicast/internal/rng"
)

func TestActivityStrings(t *testing.T) {
	for a, want := range map[Activity]string{
		Quiet: "quiet", Delivered: "delivered", Collided: "collided", Jammed: "jammed",
	} {
		if a.String() != want {
			t.Errorf("Activity %d = %q, want %q", a, a.String(), want)
		}
	}
	if Activity(9).String() == "" {
		t.Error("unknown activity must render")
	}
}

func TestReactiveJamsPreviouslyBusyChannels(t *testing.T) {
	s := Reactive(1.0).New(rng.New(1)).(Adaptive)
	// Nothing observed yet → nothing jammed.
	mask := bitset.New(8)
	if n := s.Fill(0, 8, mask); n != 0 {
		t.Fatalf("reactive jammed %d channels with no history", n)
	}
	// Observe: channels 2 (delivered) and 5 (collided) busy; 3 jammed-only.
	s.Observe(0, []Activity{Quiet, Quiet, Delivered, Jammed, Quiet, Collided, Quiet, Quiet})
	mask.Reset()
	n := s.Fill(1, 8, mask)
	if n != 2 || !mask.Test(2) || !mask.Test(5) {
		t.Fatalf("reactive jammed %d (%v %v), want channels 2 and 5", n, mask.Test(2), mask.Test(5))
	}
	// Next slot quiet → jam set empties.
	s.Observe(1, make([]Activity, 8))
	mask.Reset()
	if n := s.Fill(2, 8, mask); n != 0 {
		t.Fatalf("reactive kept jamming after a quiet slot (%d)", n)
	}
}

func TestReactiveRespectsCap(t *testing.T) {
	s := Reactive(0.25).New(rng.New(1)).(Adaptive)
	act := make([]Activity, 16)
	for i := range act {
		act[i] = Collided
	}
	s.Observe(0, act)
	mask := bitset.New(16)
	if n := s.Fill(1, 16, mask); n != 4 {
		t.Fatalf("reactive jammed %d of 16, cap is 25%% = 4", n)
	}
}

func TestReactiveCopiesObservation(t *testing.T) {
	// The engine reuses the activity buffer; the strategy must not alias it.
	s := Reactive(1.0).New(rng.New(1)).(Adaptive)
	act := []Activity{Delivered, Quiet}
	s.Observe(0, act)
	act[0] = Quiet // engine reuses the buffer
	act[1] = Delivered
	mask := bitset.New(2)
	n := s.Fill(1, 2, mask)
	if n != 1 || !mask.Test(0) {
		t.Fatal("reactive aliased the engine's observation buffer")
	}
}

func TestCamperDwellsAndExpires(t *testing.T) {
	s := Camper(3, 4).New(rng.New(1)).(Adaptive)
	s.Observe(10, []Activity{Quiet, Delivered, Quiet, Quiet})
	for slot := int64(11); slot <= 13; slot++ {
		mask := bitset.New(4)
		if n := s.Fill(slot, 4, mask); n != 1 || !mask.Test(1) {
			t.Fatalf("slot %d: camper not camping on channel 1 (n=%d)", slot, n)
		}
	}
	mask := bitset.New(4)
	if n := s.Fill(14, 4, mask); n != 0 {
		t.Fatalf("camper did not release channel after dwell (n=%d)", n)
	}
}

func TestCamperTracksAtMostMaxChans(t *testing.T) {
	s := Camper(100, 2).New(rng.New(1)).(Adaptive)
	s.Observe(0, []Activity{Delivered, Delivered, Delivered, Delivered})
	mask := bitset.New(4)
	if n := s.Fill(1, 4, mask); n != 2 {
		t.Fatalf("camper tracks %d channels, cap is 2", n)
	}
}

func TestCamperIgnoresNonDeliveries(t *testing.T) {
	s := Camper(10, 4).New(rng.New(1)).(Adaptive)
	s.Observe(0, []Activity{Collided, Jammed, Quiet, Quiet})
	mask := bitset.New(4)
	if n := s.Fill(1, 4, mask); n != 0 {
		t.Fatalf("camper chased non-delivery activity (n=%d)", n)
	}
}

// mapCamper is the camper as a map from channel to last jam slot — the
// reference the camper's list-and-slice form must reproduce slot by slot.
// Expiry is lazy here too: Fill drops expired entries, Observe does not.
type mapCamper struct {
	dwell    int64
	maxChans int
	expiry   map[int]int64
}

func (s *mapCamper) Fill(slot int64, channels int, mask *bitset.Set) int {
	count := 0
	for ch, until := range s.expiry {
		if slot > until {
			delete(s.expiry, ch)
			continue
		}
		if ch < channels {
			mask.Set(ch)
			count++
		}
	}
	return count
}

func (s *mapCamper) Observe(slot int64, activity []Activity) {
	for ch, a := range activity {
		if a != Delivered {
			continue
		}
		if len(s.expiry) >= s.maxChans {
			if _, tracked := s.expiry[ch]; !tracked {
				continue
			}
		}
		s.expiry[ch] = slot + s.dwell
	}
}

// TestCamperMatchesMapReference drives the camper and mapCamper with the
// same random Observe/Fill sequences and compares every slot's mask and
// count. The sequences saturate maxChans, change the channel count (as
// MultiCastAdv's phases do, both up and down), and skip Fill for runs of
// slots, as the engine does once Eve's budget is spent — so channels
// expire while tracked and must keep counting against maxChans until a
// Fill drops them.
func TestCamperMatchesMapReference(t *testing.T) {
	counts := []int{1, 2, 4, 8, 16, 32}
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		dwell := int64(1 + r.Intn(10))
		maxChans := 1 + r.Intn(6)
		got := Camper(dwell, maxChans).New(r).(Adaptive)
		want := &mapCamper{dwell: dwell, maxChans: maxChans, expiry: make(map[int]int64)}
		gotMask, wantMask := bitset.New(32), bitset.New(32)
		channels := counts[r.Intn(len(counts))]
		deliverP := 0.05 + 0.4*r.Float64()
		filling := true
		for slot := int64(0); slot < 500; slot++ {
			if r.Intn(40) == 0 {
				channels = counts[r.Intn(len(counts))]
			}
			if r.Intn(12) == 0 {
				filling = !filling
			}
			if filling {
				gotMask.Reset()
				wantMask.Reset()
				gn := got.Fill(slot, channels, gotMask)
				wn := want.Fill(slot, channels, wantMask)
				if gn != wn {
					t.Fatalf("seed %d slot %d: camper jams %d channels, reference %d", seed, slot, gn, wn)
				}
				for ch := 0; ch < 32; ch++ {
					if gotMask.Test(ch) != wantMask.Test(ch) {
						t.Fatalf("seed %d slot %d: channel %d jammed=%v, reference %v",
							seed, slot, ch, gotMask.Test(ch), wantMask.Test(ch))
					}
				}
			}
			act := make([]Activity, channels)
			for ch := range act {
				if r.Bernoulli(deliverP) {
					act[ch] = Delivered
				} else {
					act[ch] = Activity(r.Intn(4))
				}
			}
			got.Observe(slot, act)
			want.Observe(slot, act)
		}
	}
}

func TestCamperValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero dwell": func() { Camper(0, 1) },
		"zero max":   func() { Camper(5, 0) },
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

func TestAdaptiveInterfaceAssertions(t *testing.T) {
	var _ Adaptive = Reactive(0.5).New(rng.New(1)).(Adaptive)
	var _ Adaptive = Camper(5, 2).New(rng.New(1)).(Adaptive)
	// Oblivious strategies must NOT satisfy Adaptive.
	if _, ok := BlockFraction(0.5).New(rng.New(1)).(Adaptive); ok {
		t.Error("oblivious strategy satisfies Adaptive")
	}
}
