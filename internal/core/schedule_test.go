package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScheduleWindowSequence(t *testing.T) {
	s := NewAdvSchedule(Sim())
	// Epoch 1 has one phase (j=0) → windows 0,1 are its steps 1,2;
	// epoch 2 has phases j=0,1 → windows 2..5; epoch 3 → 6..11; etc.
	wantPhases := []struct{ i, j, step int }{
		{1, 0, 1}, {1, 0, 2},
		{2, 0, 1}, {2, 0, 2}, {2, 1, 1}, {2, 1, 2},
		{3, 0, 1}, {3, 0, 2}, {3, 1, 1}, {3, 1, 2}, {3, 2, 1}, {3, 2, 2},
		{4, 0, 1},
	}
	for k, want := range wantPhases {
		w := s.Window(k)
		if w.I != want.i || w.J != want.j || w.Step != want.step {
			t.Fatalf("window %d = (%d,%d,step%d), want (%d,%d,step%d)",
				k, w.I, w.J, w.Step, want.i, want.j, want.step)
		}
	}
}

func TestScheduleContiguousCoverage(t *testing.T) {
	s := NewAdvSchedule(Sim())
	var at int64
	for k := 0; k < 200; k++ {
		w := s.Window(k)
		if w.Start != at {
			t.Fatalf("window %d starts at %d, want %d (gap/overlap)", k, w.Start, at)
		}
		if w.End != w.Start+w.Len || w.Len < 1 {
			t.Fatalf("window %d has inconsistent extent %+v", k, w)
		}
		at = w.End
	}
}

func TestScheduleStepLenFormula(t *testing.T) {
	p := Paper(0.2)
	s := NewAdvSchedule(p)
	// R(i,j) = ⌈b·2^{2α(i−j)}·i³⌉ with b = 1.
	cases := []struct {
		i, j int
		want int64
	}{
		{1, 0, int64(math.Ceil(math.Exp2(0.4) * 1))},
		{5, 2, int64(math.Ceil(math.Exp2(0.4*3) * 125))},
		{10, 0, int64(math.Ceil(math.Exp2(0.4*10) * 1000))},
	}
	for _, tc := range cases {
		if got := s.StepLen(tc.i, tc.j); got != tc.want {
			t.Errorf("StepLen(%d,%d) = %d, want %d", tc.i, tc.j, got, tc.want)
		}
	}
}

func TestScheduleProbFormula(t *testing.T) {
	s := NewAdvSchedule(Paper(0.2))
	// p(i,j) = 2^{−α(i−j)}/2.
	if got := s.Prob(5, 5); got != 0.5 {
		t.Errorf("Prob(i=j) = %v, want 1/2", got)
	}
	want := math.Exp2(-0.2*4) / 2
	if got := s.Prob(9, 5); math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob(9,5) = %v, want %v", got, want)
	}
	// p decays by 2^{−α} per epoch at fixed j.
	r := s.Prob(10, 5) / s.Prob(11, 5)
	if math.Abs(r-math.Exp2(0.2)) > 1e-12 {
		t.Errorf("per-epoch decay = %v, want 2^α", r)
	}
}

func TestScheduleChannels(t *testing.T) {
	s := NewAdvSchedule(Sim())
	for j, want := range []int{1, 2, 4, 8, 16} {
		if got := s.ChannelsFor(j); got != want {
			t.Errorf("ChannelsFor(%d) = %d, want %d", j, got, want)
		}
	}
	if got := s.ChannelsFor(40); got != DefaultChannelCap {
		t.Errorf("ChannelsFor(40) = %d, want cap %d", got, DefaultChannelCap)
	}
	if got := s.ChannelsFor(16); got != DefaultChannelCap {
		t.Errorf("ChannelsFor(16) = %d, want cap %d", got, DefaultChannelCap)
	}
}

func TestScheduleCutOff(t *testing.T) {
	// MultiCastAdv(C) with C = 8: phases stop at j = lg 8 = 3.
	s := NewAdvScheduleC(Sim(), 8)
	maxJSeen := 0
	for k := 0; k < 400; k++ {
		w := s.Window(k)
		if w.J > maxJSeen {
			maxJSeen = w.J
		}
		if w.J > 3 {
			t.Fatalf("window %d has phase j=%d beyond cut-off 3", k, w.J)
		}
	}
	if maxJSeen != 3 {
		t.Fatalf("cut-off schedule never reached j=3 (max %d)", maxJSeen)
	}
	// Epochs i ≥ 5 must have exactly 4 phases (j=0..3): windows per epoch = 8.
	w := s.At(s.epochStart(6))
	if w.I != 6 || w.J != 0 || w.Step != 1 {
		t.Fatalf("EpochStart(6) lands at (%d,%d,step%d)", w.I, w.J, w.Step)
	}
}

func TestScheduleCutOffNonPowerOfTwo(t *testing.T) {
	// C = 100 → ⌊lg 100⌋ = 6.
	s := NewAdvScheduleC(Sim(), 100)
	if s.jCut != 6 {
		t.Errorf("jCut = %d, want 6", s.jCut)
	}
	s = NewAdvScheduleC(Sim(), 1)
	if s.jCut != 0 {
		t.Errorf("jCut(C=1) = %d, want 0", s.jCut)
	}
	s = NewAdvScheduleC(Sim(), 0) // clamped
	if s.jCut != 0 {
		t.Errorf("jCut(C=0) = %d, want 0", s.jCut)
	}
}

func TestScheduleAtMatchesWindows(t *testing.T) {
	s := NewAdvSchedule(Sim())
	probe := NewAdvSchedule(Sim())
	for k := 0; k < 60; k++ {
		w := s.Window(k)
		for _, slot := range []int64{w.Start, w.Start + w.Len/2, w.End - 1} {
			got := probe.At(slot)
			if got != w {
				t.Fatalf("At(%d) = %+v, want window %d %+v", slot, got, k, w)
			}
		}
	}
}

func TestScheduleAtRandomAccess(t *testing.T) {
	// Backwards and jumping access must agree with sequential access.
	seq := NewAdvSchedule(Sim())
	rnd := NewAdvSchedule(Sim())
	last := seq.Window(80).End - 1
	for _, slot := range []int64{last, 0, last / 2, 7, last - 3, 1} {
		w := rnd.At(slot)
		if slot < w.Start || slot >= w.End {
			t.Fatalf("At(%d) returned non-covering window %+v", slot, w)
		}
	}
}

func TestScheduleAtNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(-1) did not panic")
		}
	}()
	NewAdvSchedule(Sim()).At(-1)
}

// epochStart is the first slot of epoch i ≥ 1 in closed form: both
// steps of every phase of every earlier epoch.
func (s *AdvSchedule) epochStart(i int) int64 {
	var at int64
	for e := 1; e < i; e++ {
		for j := 0; j <= s.maxJ(e); j++ {
			at += 2 * s.StepLen(e, j)
		}
	}
	return at
}

// The closed form agrees with the windows the schedule lays out.
func TestScheduleEpochStart(t *testing.T) {
	s := NewAdvSchedule(Sim())
	for i := 1; i <= 8; i++ {
		start := s.epochStart(i)
		w := s.At(start)
		if w.I != i || w.J != 0 || w.Step != 1 {
			t.Errorf("EpochStart(%d) → (%d,%d,step%d)", i, w.I, w.J, w.Step)
		}
		if start > 0 {
			prev := s.At(start - 1)
			if prev.I != i-1 {
				t.Errorf("slot before EpochStart(%d) is in epoch %d", i, prev.I)
			}
		}
	}
}

func TestScheduleActiveFunc(t *testing.T) {
	s := NewAdvSchedule(Sim())
	// Predicate: step two of phases with j == 1.
	active := s.ActiveFunc(func(w StepWindow) bool { return w.J == 1 && w.Step == 2 })
	probe := NewAdvSchedule(Sim())
	end := probe.Window(60).End
	for slot := int64(0); slot < end; slot++ {
		w := probe.At(slot)
		want := w.J == 1 && w.Step == 2
		if active(slot) != want {
			t.Fatalf("ActiveFunc(%d) = %v, want %v (window %+v)", slot, active(slot), want, w)
		}
	}
}

// Property: windows tile the timeline with the formula lengths and the
// right channel counts, for random α and cut-offs.
func TestQuickScheduleConsistent(t *testing.T) {
	f := func(alphaRaw uint8, cutRaw uint8) bool {
		p := Sim()
		p.Alpha = 0.01 + 0.23*float64(alphaRaw)/255
		var s *AdvSchedule
		if cutRaw%2 == 0 {
			s = NewAdvSchedule(p)
		} else {
			s = NewAdvScheduleC(p, 1+int(cutRaw))
		}
		var at int64
		for k := 0; k < 80; k++ {
			w := s.Window(k)
			if w.Start != at || w.Len != s.StepLen(w.I, w.J) {
				return false
			}
			if w.P != s.Prob(w.I, w.J) || w.Channels != s.ChannelsFor(w.J) {
				return false
			}
			if w.J > w.I-1 {
				return false
			}
			at = w.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
