package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	if err := Sim().Validate(); err != nil {
		t.Errorf("Sim preset invalid: %v", err)
	}
	for _, alpha := range []float64{0.05, 0.1, 0.2, 0.24} {
		if err := Paper(alpha).Validate(); err != nil {
			t.Errorf("Paper(%v) preset invalid: %v", alpha, err)
		}
	}
}

func TestPaperPresetLiteralConstants(t *testing.T) {
	p := Paper(0.1)
	if p.CoreP != 1.0/64 {
		t.Errorf("CoreP = %v, want 1/64", p.CoreP)
	}
	if p.StartIter != 6 {
		t.Errorf("StartIter = %d, want 6", p.StartIter)
	}
	if p.LogPow != 2 {
		t.Errorf("LogPow = %d, want 2", p.LogPow)
	}
	if p.IExp != 3 {
		t.Errorf("IExp = %d, want 3", p.IExp)
	}
	if p.HelperNm != 1.5 || p.HelperNs != 0.9 || p.HelperNmPrime != 2.2 {
		t.Errorf("helper thresholds = %v/%v/%v, want 1.5/0.9/2.2", p.HelperNm, p.HelperNs, p.HelperNmPrime)
	}
	if p.HaltNoise != 1.0/3000 {
		t.Errorf("HaltNoise = %v, want 1/3000", p.HaltNoise)
	}
	if p.HaltRatio != 0.5 {
		t.Errorf("HaltRatio = %v, want 1/2", p.HaltRatio)
	}
}

func TestValidateRejects(t *testing.T) {
	base := Sim()
	cases := []struct {
		name string
		mod  func(*Params)
		want string
	}{
		{"zero CoreP", func(p *Params) { p.CoreP = 0 }, "CoreP"},
		{"CoreP above half", func(p *Params) { p.CoreP = 0.6 }, "CoreP"},
		{"negative CoreA", func(p *Params) { p.CoreA = -1 }, "CoreA"},
		{"zero A", func(p *Params) { p.A = 0 }, "A ="},
		{"StartIter zero", func(p *Params) { p.StartIter = 0 }, "StartIter"},
		{"StartIter huge", func(p *Params) { p.StartIter = 21 }, "StartIter"},
		{"LogPow negative", func(p *Params) { p.LogPow = -1 }, "LogPow"},
		{"HaltRatio one", func(p *Params) { p.HaltRatio = 1 }, "HaltRatio"},
		{"alpha zero", func(p *Params) { p.Alpha = 0 }, "Alpha"},
		{"alpha quarter", func(p *Params) { p.Alpha = 0.25 }, "Alpha"},
		{"zero B", func(p *Params) { p.B = 0 }, "B ="},
		{"IExp big", func(p *Params) { p.IExp = 5 }, "IExp"},
		{"zero HelperNm", func(p *Params) { p.HelperNm = 0 }, "helper thresholds"},
		{"HaltNoise one", func(p *Params) { p.HaltNoise = 1 }, "HaltNoise"},
		{"negative HelperGap", func(p *Params) { p.HelperGap = -1 }, "HelperGap"},
	}
	for _, tc := range cases {
		p := base
		tc.mod(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid params", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestHelperGapDefaultsToPaperFormula(t *testing.T) {
	p := Paper(0.2)
	if got := p.helperGap(); got != 10 { // ⌈2/0.2⌉
		t.Errorf("helperGap(α=0.2) = %d, want 10", got)
	}
	p = Paper(0.15)
	if got := p.helperGap(); got != 14 { // ⌈2/0.15⌉ = ⌈13.33⌉
		t.Errorf("helperGap(α=0.15) = %d, want 14", got)
	}
	p.HelperGap = 7
	if got := p.helperGap(); got != 7 {
		t.Errorf("explicit HelperGap ignored: %d", got)
	}
}

func TestValidateN(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 1024} {
		if err := ValidateN(n); err != nil {
			t.Errorf("ValidateN(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{-2, 0, 1, 3, 6, 100, 1000} {
		if err := ValidateN(n); err == nil {
			t.Errorf("ValidateN(%d) accepted a non-power-of-two", n)
		}
	}
}

func TestLg(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1024: 10}
	for n, want := range cases {
		if got := lg(n); got != want {
			t.Errorf("lg(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLgPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lg(0) did not panic")
		}
	}()
	lg(0)
}

func TestLgPow(t *testing.T) {
	if got := lgPow(256, 2); got != 64 {
		t.Errorf("lgPow(256,2) = %v, want 64", got)
	}
	if got := lgPow(256, 0); got != 1 {
		t.Errorf("lgPow(256,0) = %v, want 1", got)
	}
	// lg floored at 1 so n=2 still yields positive factors.
	if got := lgPow(2, 2); got != 1 {
		t.Errorf("lgPow(2,2) = %v, want 1", got)
	}
}

func TestCeilPos(t *testing.T) {
	cases := map[float64]int64{0.1: 1, 1.0: 1, 1.5: 2, -3: 1, 0: 1, 100.0001: 101}
	for x, want := range cases {
		if got := ceilPos(x); got != want {
			t.Errorf("ceilPos(%v) = %d, want %d", x, got, want)
		}
	}
}

func TestLgf(t *testing.T) {
	cases := map[int64]float64{1: 1, 2: 1, 4: 2, 1024: 10, 1 << 20: 20}
	for v, want := range cases {
		if got := lgf(v); got != want {
			t.Errorf("lgf(%d) = %v, want %v", v, got, want)
		}
	}
}

// Property: helperGap is always positive and equals ⌈2/α⌉ when unset.
func TestQuickHelperGap(t *testing.T) {
	f := func(raw uint8) bool {
		alpha := 0.01 + 0.23*float64(raw)/255
		p := Paper(alpha)
		g := p.helperGap()
		return g >= 1 && g == int(math.Ceil(2/alpha))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChannelDiv(t *testing.T) {
	p := Sim()
	if p.channelDiv() != 2 {
		t.Fatalf("default channelDiv = %d, want 2", p.channelDiv())
	}
	p.ChannelDiv = 4
	alg, err := NewMultiCast(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Channels(0) != 16 {
		t.Errorf("Channels = %d with ChannelDiv 4, want 16", alg.Channels(0))
	}
	algCore, err := NewMultiCastCore(p, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if algCore.Channels(0) != 16 {
		t.Errorf("Core Channels = %d with ChannelDiv 4, want 16", algCore.Channels(0))
	}
	// MultiCast(C) pins the divisor to the paper's 2.
	algC, err := NewMultiCastC(p, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if algC.subSlots != 4 {
		t.Errorf("MultiCast(C) round length %d, want 4 (n/2 virtual channels)", algC.subSlots)
	}
	p.ChannelDiv = -1
	if err := p.Validate(); err == nil {
		t.Error("negative ChannelDiv accepted")
	}
}
