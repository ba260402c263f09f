package core

import (
	"math"
	"testing"

	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

// walkStep drives a node through the remainder of its current step window,
// delivering feed(slotInStep) each slot (nil → no feedback).
func walkStep(t *testing.T, nd *advNode, feed func(k int64) *radio.Feedback) {
	t.Helper()
	w := nd.cur
	for k := nd.offset; k < w.Len; k++ {
		nd.Step(0)
		if feed != nil {
			if fb := feed(k); fb != nil {
				nd.Deliver(*fb)
			}
		}
		nd.EndSlot(0)
		if nd.Status() == protocol.Halted {
			return
		}
	}
}

// feedbackPlan delivers nm messages, then beacons up to nmPrime totals,
// then noise up to nn, then silence for the rest of the step.
func feedbackPlan(nm, beacons, nn int64) func(k int64) *radio.Feedback {
	return func(k int64) *radio.Feedback {
		switch {
		case k < nm:
			return &radio.Feedback{Status: radio.Message, Payload: radio.MsgM}
		case k < nm+beacons:
			return &radio.Feedback{Status: radio.Message, Payload: radio.Beacon}
		case k < nm+beacons+nn:
			return &radio.Feedback{Status: radio.Noise}
		default:
			return &radio.Feedback{Status: radio.Silence}
		}
	}
}

func newAdvNode(t *testing.T, source bool) *advNode {
	t.Helper()
	alg, err := NewMultiCastAdv(Sim())
	if err != nil {
		t.Fatal(err)
	}
	return alg.NewNode(1, source, rng.New(7)).(*advNode)
}

func newAdvCNode(t *testing.T, c int, source bool) *advNode {
	t.Helper()
	alg, err := NewMultiCastAdvC(Sim(), c)
	if err != nil {
		t.Fatal(err)
	}
	return alg.NewNode(1, source, rng.New(7)).(*advNode)
}

// thresholds returns the helper-check thresholds for the node's current window.
func thresholds(nd *advNode) (nmMin, nsMin, nmPrimeMax, nnMax int64) {
	p := nd.alg.params
	w := nd.cur
	rp := float64(w.Len) * w.P
	rp2 := rp * w.P
	return int64(math.Ceil(p.HelperNm * rp2)), int64(math.Ceil(p.HelperNs * rp)),
		int64(math.Floor(p.HelperNmPrime * rp2)), int64(math.Floor(p.HaltNoise * rp))
}

func TestAdvConstructorValidation(t *testing.T) {
	bad := Sim()
	bad.Alpha = 0.3
	if _, err := NewMultiCastAdv(bad); err == nil {
		t.Error("accepted α ≥ 1/4")
	}
	if _, err := NewMultiCastAdvC(Sim(), 0); err == nil {
		t.Error("accepted C = 0")
	}
	alg, err := NewMultiCastAdv(Sim())
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "MultiCastAdv" {
		t.Errorf("Name = %q", alg.Name())
	}
	algC, err := NewMultiCastAdvC(Sim(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if algC.Name() != "MultiCastAdv(C)" {
		t.Errorf("Name = %q", algC.Name())
	}
}

func TestAdvChannelsFollowSchedule(t *testing.T) {
	alg, _ := NewMultiCastAdv(Sim())
	sched := NewAdvSchedule(Sim())
	for k := 0; k < 40; k++ {
		w := sched.Window(k)
		if got := alg.Channels(w.Start); got != w.Channels {
			t.Fatalf("Channels(%d) = %d, want %d (window %+v)", w.Start, got, w.Channels, w)
		}
	}
}

func TestAdvStepOneBehaviour(t *testing.T) {
	// Uninformed: only listens; informed: only broadcasts m.
	un := newAdvNode(t, false)
	src := newAdvNode(t, true)
	for s := 0; s < 2000; s++ {
		if un.cur.Step != 1 {
			break
		}
		if a := un.Step(0); a.Kind == protocol.Broadcast {
			t.Fatal("uninformed node broadcast in step one")
		}
		un.EndSlot(0)
	}
	for s := 0; s < 2000; s++ {
		if src.cur.Step != 1 {
			break
		}
		if a := src.Step(0); a.Kind == protocol.Listen {
			t.Fatal("informed node listened in step one")
		} else if a.Kind == protocol.Broadcast && a.Payload != radio.MsgM {
			t.Fatal("informed node must broadcast m in step one")
		}
		src.EndSlot(0)
	}
}

func TestAdvStepOneInformsImmediately(t *testing.T) {
	nd := newAdvNode(t, false)
	if nd.cur.Step != 1 {
		t.Fatal("node must start in step one")
	}
	nd.Step(0)
	nd.Deliver(radio.Feedback{Status: radio.Message, Payload: radio.MsgM})
	if nd.Status() != protocol.Informed {
		t.Fatal("step-one message did not inform immediately")
	}
}

func TestAdvStepTwoStatusFrozenUntilPhaseEnd(t *testing.T) {
	nd := newAdvNode(t, false)
	// Skip step one.
	walkStep(t, nd, nil)
	if nd.cur.Step != 2 {
		t.Fatal("expected step two")
	}
	nd.Step(0)
	nd.Deliver(radio.Feedback{Status: radio.Message, Payload: radio.MsgM})
	if nd.Status() != protocol.Uninformed {
		t.Fatal("status changed mid-step-two (pseudocode freezes it)")
	}
	if nd.nm != 1 || nd.nmPrime != 1 {
		t.Fatalf("counters Nm=%d N'm=%d, want 1,1", nd.nm, nd.nmPrime)
	}
	nd.EndSlot(0)
	// Finish the step: the Nm ≥ 1 check then informs the node.
	walkStep(t, nd, nil)
	if nd.Status() != protocol.Informed {
		t.Fatalf("status = %v after phase end, want informed", nd.Status())
	}
}

func TestAdvStepTwoBeaconFromUninformed(t *testing.T) {
	nd := newAdvNode(t, false)
	walkStep(t, nd, nil) // into step two
	sawBeacon := false
	for k := nd.offset; k < nd.cur.Len; k++ {
		if a := nd.Step(0); a.Kind == protocol.Broadcast {
			if a.Payload != radio.Beacon {
				t.Fatal("uninformed node must broadcast ± in step two")
			}
			sawBeacon = true
		}
		nd.EndSlot(0)
	}
	// With p ≈ 0.44 in phase (1,0), ~40% broadcast rate: the step has
	// enough slots that seeing no beacon at all is astronomically unlikely.
	if !sawBeacon && nd.cur.Len > 20 {
		t.Error("uninformed node never broadcast the beacon in step two")
	}
}

func TestAdvCounterTallies(t *testing.T) {
	nd := newAdvNode(t, true)
	walkStep(t, nd, nil) // step one
	if nd.cur.Step != 2 {
		t.Fatal("expected step two")
	}
	seq := []radio.Feedback{
		{Status: radio.Message, Payload: radio.MsgM},
		{Status: radio.Message, Payload: radio.Beacon},
		{Status: radio.Noise},
		{Status: radio.Silence},
		{Status: radio.Message, Payload: radio.MsgM},
		{Status: radio.Noise},
	}
	for i := range seq {
		nd.Step(0)
		nd.Deliver(seq[i])
		nd.EndSlot(0)
	}
	if nd.nm != 2 || nd.nmPrime != 3 || nd.nn != 2 || nd.ns != 1 {
		t.Fatalf("counters Nm=%d N'm=%d Nn=%d Ns=%d, want 2,3,2,1", nd.nm, nd.nmPrime, nd.nn, nd.ns)
	}
}

func TestAdvHelperTransition(t *testing.T) {
	nd := newAdvNode(t, true)
	walkStep(t, nd, nil) // step one of (1,0)
	nmMin, nsMin, nmPrimeMax, _ := thresholds(nd)
	if nmMin > nmPrimeMax {
		t.Fatalf("window too small to satisfy both Nm ≥ %d and N'm ≤ %d", nmMin, nmPrimeMax)
	}
	w := nd.cur
	if nmMin+nsMin > w.Len {
		t.Fatalf("window too small for the plan: need %d+%d of %d", nmMin, nsMin, w.Len)
	}
	walkStep(t, nd, feedbackPlan(nmMin, 0, 0)) // rest silence ⇒ Ns large
	if nd.Status() != protocol.Helper {
		t.Fatalf("status = %v, want helper (Nm=%d Ns=%d N'm=%d)", nd.Status(), nd.nm, nd.ns, nd.nmPrime)
	}
	if i, j := nd.HelperPhase(); i != 1 || j != 0 {
		t.Fatalf("HelperPhase = (%d,%d), want (1,0)", i, j)
	}
}

func TestAdvHelperRejectedByNmPrime(t *testing.T) {
	nd := newAdvNode(t, true)
	walkStep(t, nd, nil)
	nmMin, _, nmPrimeMax, _ := thresholds(nd)
	// Enough messages but too many beacons: N'm exceeds the bound.
	beacons := nmPrimeMax - nmMin + 2
	walkStep(t, nd, feedbackPlan(nmMin, beacons, 0))
	if nd.Status() == protocol.Helper {
		t.Fatalf("became helper despite N'm=%d > %d", nd.nmPrime, nmPrimeMax)
	}
}

func TestAdvHelperRejectedByLowNs(t *testing.T) {
	nd := newAdvNode(t, true)
	walkStep(t, nd, nil)
	nmMin, _, _, _ := thresholds(nd)
	// Messages then noise (no silence): Ns stays zero.
	walkStep(t, nd, func(k int64) *radio.Feedback {
		if k < nmMin {
			return &radio.Feedback{Status: radio.Message, Payload: radio.MsgM}
		}
		return &radio.Feedback{Status: radio.Noise}
	})
	if nd.Status() == protocol.Helper {
		t.Fatal("became helper despite Ns = 0")
	}
}

func TestAdvHelperRejectedByLowNm(t *testing.T) {
	nd := newAdvNode(t, true)
	walkStep(t, nd, nil)
	nmMin, _, _, _ := thresholds(nd)
	walkStep(t, nd, feedbackPlan(nmMin-1, 0, 0))
	if nd.Status() == protocol.Helper {
		t.Fatalf("became helper with Nm=%d < %d", nd.nm, nmMin)
	}
}

// promoteToHelper walks a fresh source node to helper in phase (1,0) and
// returns it.
func promoteToHelper(t *testing.T, nd *advNode) {
	t.Helper()
	walkStep(t, nd, nil)
	nmMin, _, _, _ := thresholds(nd)
	walkStep(t, nd, feedbackPlan(nmMin, 0, 0))
	if nd.Status() != protocol.Helper {
		t.Fatalf("setup: node not helper (status %v)", nd.Status())
	}
}

func TestAdvHaltAfterGapInQuietPhase(t *testing.T) {
	nd := newAdvNode(t, true)
	promoteToHelper(t, nd)
	gap := nd.alg.params.helperGap()
	// Walk forward, all silence. The node must halt exactly at the end of
	// phase (1+gap, 0): same j, i − iˆ ≥ gap, Nn = 0.
	for guard := 0; guard < 10_000 && nd.Status() != protocol.Halted; guard++ {
		walkStep(t, nd, nil)
	}
	if nd.Status() != protocol.Halted {
		t.Fatal("helper never halted in quiet phases")
	}
	if nd.cur.I != 1+gap || nd.cur.J != 0 {
		t.Fatalf("halted in phase (%d,%d), want (%d,0)", nd.cur.I, nd.cur.J, 1+gap)
	}
}

func TestAdvNoHaltBeforeGap(t *testing.T) {
	nd := newAdvNode(t, true)
	promoteToHelper(t, nd)
	gap := nd.alg.params.helperGap()
	for nd.cur.I < 1+gap {
		if nd.Status() == protocol.Halted {
			t.Fatalf("halted in epoch %d, before iˆ+gap = %d", nd.cur.I, 1+gap)
		}
		walkStep(t, nd, nil)
	}
}

func TestAdvNoHaltInWrongPhase(t *testing.T) {
	// Helper with jˆ = 0 must not halt at the end of phases with j ≠ 0
	// even when they are silent; drive j=0 phases noisy so it never halts.
	nd := newAdvNode(t, true)
	promoteToHelper(t, nd)
	noise := &radio.Feedback{Status: radio.Noise}
	for guard := 0; guard < 2000; guard++ {
		if nd.cur.J == 0 && nd.cur.Step == 2 {
			walkStep(t, nd, func(int64) *radio.Feedback { return noise })
		} else {
			walkStep(t, nd, nil)
		}
		if nd.Status() == protocol.Halted {
			t.Fatalf("halted in phase (%d,%d) although jˆ=0 phases were noisy", nd.cur.I, nd.cur.J)
		}
		// Covering well past iˆ+gap is enough; epoch lengths grow
		// geometrically, so stop before windows get large.
		if nd.cur.I > 1+2*nd.alg.params.helperGap() {
			break
		}
	}
}

func TestAdvHaltBlockedByNoise(t *testing.T) {
	nd := newAdvNode(t, true)
	promoteToHelper(t, nd)
	_, _, _, nnMax := thresholds(nd)
	_ = nnMax
	// All step-two windows get just-above-threshold noise → never halt.
	for guard := 0; guard < 600; guard++ {
		if nd.cur.Step == 2 {
			p := nd.alg.params
			rp := float64(nd.cur.Len) * nd.cur.P
			over := int64(math.Floor(p.HaltNoise*rp)) + 1
			walkStep(t, nd, feedbackPlan(0, 0, over))
		} else {
			walkStep(t, nd, nil)
		}
		if nd.Status() == protocol.Halted {
			t.Fatal("halted despite Nn above the halt threshold")
		}
		if nd.cur.I > 20 {
			return
		}
	}
}

func TestAdvCHelperAtCutoffDropsNmPrime(t *testing.T) {
	// In MultiCastAdv(C), at j = lg C the N'm condition is dropped
	// (Figure 6 line 23): a node flooded with beacons still becomes helper.
	nd := newAdvCNode(t, 1, true) // jCut = 0, so phase (1,0) is a cut-off phase
	walkStep(t, nd, nil)
	nmMin, _, nmPrimeMax, _ := thresholds(nd)
	beacons := nmPrimeMax - nmMin + 5 // would fail the unlimited-channel rule
	walkStep(t, nd, feedbackPlan(nmMin, beacons, 0))
	if nd.Status() != protocol.Helper {
		t.Fatalf("cut-off phase did not drop N'm condition (status %v, N'm=%d > %d)",
			nd.Status(), nd.nmPrime, nmPrimeMax)
	}
}

func TestAdvCNonCutoffPhaseKeepsNmPrime(t *testing.T) {
	// With C = 2 (jCut = 1), phase (2,0) is below the cut-off and must
	// keep the N'm rejection.
	nd := newAdvCNode(t, 2, true)
	// Walk through epoch 1 entirely (phase (1,0)) with noise so no helper.
	noise := &radio.Feedback{Status: radio.Noise}
	for nd.cur.I == 1 {
		walkStep(t, nd, func(int64) *radio.Feedback { return noise })
	}
	if nd.Status() != protocol.Informed {
		t.Fatalf("setup: status %v", nd.Status())
	}
	// Phase (2,0): j=0 < jCut=1 → N'm applies.
	if nd.cur.I != 2 || nd.cur.J != 0 {
		t.Fatalf("setup: in phase (%d,%d)", nd.cur.I, nd.cur.J)
	}
	walkStep(t, nd, nil) // step one
	nmMin, _, nmPrimeMax, _ := thresholds(nd)
	walkStep(t, nd, feedbackPlan(nmMin, nmPrimeMax-nmMin+2, 0))
	if nd.Status() == protocol.Helper {
		t.Fatal("N'm condition not enforced below the cut-off phase")
	}
}

func TestAdvHelperPersistsAcrossPhases(t *testing.T) {
	nd := newAdvNode(t, true)
	promoteToHelper(t, nd)
	iHat, jHat := nd.HelperPhase()
	// Noisy phases cannot demote a helper.
	noise := &radio.Feedback{Status: radio.Noise}
	for k := 0; k < 20; k++ {
		walkStep(t, nd, func(int64) *radio.Feedback { return noise })
	}
	if nd.Status() != protocol.Helper {
		t.Fatalf("helper demoted to %v", nd.Status())
	}
	if i, j := nd.HelperPhase(); i != iHat || j != jHat {
		t.Fatal("helper phase record changed")
	}
}
