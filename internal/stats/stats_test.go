package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// summarize computes a Summary of xs through an accumulator that keeps
// every sample. Empty input yields the zero Summary (Count 0) rather
// than a panic, and non-finite samples (NaN, ±Inf) are excluded from
// every moment and tallied in Dropped.
func summarize(xs []float64) Summary {
	a := NewAccumulatorCap(max(len(xs), 1))
	for _, x := range xs {
		a.Add(x)
	}
	return a.Summary()
}

func TestSummarizeBasics(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary %+v wrong", s)
	}
	if !almost(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %v, want √2.5", s.Std)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := summarize([]float64{7})
	if s.Count != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.P95 != 7 {
		t.Fatalf("singleton summary %+v wrong", s)
	}
}

// Edge-case contract: empty, single-element, and non-finite inputs take
// the documented zero/Dropped path instead of panicking or silently
// propagating NaN into every moment.
func TestSummarizeEdgeCases(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		in   []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"single", []float64{7}, Summary{Count: 1, Mean: 7, Min: 7, Max: 7, Median: 7, P25: 7, P75: 7, P95: 7}},
		{"all NaN", []float64{nan, nan}, Summary{Dropped: 2}},
		{"NaN mixed in", []float64{3, nan, 1, inf, 2}, Summary{
			Count: 3, Dropped: 2, Mean: 2, Std: 1, Min: 1, Max: 3,
			Median: 2, P25: 1.5, P75: 2.5, P95: 2.9,
		}},
	}
	for _, tc := range cases {
		got := summarize(tc.in)
		if got.Count != tc.want.Count || got.Dropped != tc.want.Dropped ||
			!almost(got.Mean, tc.want.Mean, 1e-12) || !almost(got.Std, tc.want.Std, 1e-12) ||
			got.Min != tc.want.Min || got.Max != tc.want.Max ||
			!almost(got.Median, tc.want.Median, 1e-12) || !almost(got.P25, tc.want.P25, 1e-12) ||
			!almost(got.P75, tc.want.P75, 1e-12) || !almost(got.P95, tc.want.P95, 1e-12) {
			t.Errorf("%s: Summarize = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestQuantileEmptyIsZero(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	cases := []struct{ q, want float64 }{
		{0, 0}, {1, 9}, {0.5, 4.5}, {0.25, 2.25}, {0.95, 8.55}, {-1, 0}, {2, 9},
	}
	for _, tc := range cases {
		if got := Quantile(sorted, tc.q); !almost(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestSummaryString(t *testing.T) {
	if summarize([]float64{1, 2}).String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x+1
	f := LinearFit(xs, ys)
	if !almost(f.Slope, 2, 1e-12) || !almost(f.Intercept, 1, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Fatalf("fit %+v, want slope 2 intercept 1 R²=1", f)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9} // ≈2x
	f := LinearFit(xs, ys)
	if !almost(f.Slope, 2, 0.1) {
		t.Errorf("slope = %v, want ≈2", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Errorf("R² = %v, want > 0.99", f.R2)
	}
}

func TestLinearFitPanics(t *testing.T) {
	cases := [][2][]float64{
		{{1}, {1}},             // too short
		{{1, 2}, {1}},          // length mismatch
		{{3, 3, 3}, {1, 2, 3}}, // constant x
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			LinearFit(c[0], c[1])
		}()
	}
}

func TestLinearFitConstantY(t *testing.T) {
	f := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if f.Slope != 0 || f.Intercept != 5 || f.R2 != 1 {
		t.Fatalf("constant-y fit %+v", f)
	}
}

func TestLogLogSlopePowerLaw(t *testing.T) {
	// y = 3·x^0.5.
	var xs, ys []float64
	for _, x := range []float64{1, 4, 16, 64, 256} {
		xs = append(xs, x)
		ys = append(ys, 3*math.Sqrt(x))
	}
	f := LogLogSlope(xs, ys)
	if !almost(f.Slope, 0.5, 1e-9) {
		t.Errorf("slope = %v, want 0.5", f.Slope)
	}
}

func TestLogLogSlopeSkipsNonPositive(t *testing.T) {
	xs := []float64{0, -1, 2, 4, 8}
	ys := []float64{5, 5, 4, 8, 16} // usable points: (2,4),(4,8),(8,16) → slope 1
	f := LogLogSlope(xs, ys)
	if !almost(f.Slope, 1, 1e-9) {
		t.Errorf("slope = %v, want 1", f.Slope)
	}
}

// Property: Summarize respects ordering invariants.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := summarize(xs)
		return s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 &&
			s.P75 <= s.P95 && s.P95 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LinearFit slope is scale-equivariant: fitting (x, k·y) gives
// k times the slope.
func TestQuickFitScaling(t *testing.T) {
	f := func(raw []int8, kRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		k := 1 + float64(kRaw%7)
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		ys2 := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(i)
			ys[i] = float64(v)
			ys2[i] = k * float64(v)
		}
		f1, f2 := LinearFit(xs, ys), LinearFit(xs, ys2)
		return almost(f2.Slope, k*f1.Slope, 1e-6*(1+math.Abs(f1.Slope)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
