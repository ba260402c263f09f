package rng

import (
	"math"
	"testing"
)

func TestGeometricEdgeCases(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
		if g := r.Geometric(1.5); g != 0 {
			t.Fatalf("Geometric(1.5) = %d, want 0", g)
		}
		if g := r.Geometric(0); g != MaxGap {
			t.Fatalf("Geometric(0) = %d, want MaxGap", g)
		}
		if g := r.Geometric(-0.25); g != MaxGap {
			t.Fatalf("Geometric(-0.25) = %d, want MaxGap", g)
		}
	}
}

func TestGeometricEdgesConsumeNoDraw(t *testing.T) {
	// The degenerate edges must leave the stream untouched, mirroring
	// Bernoulli: engines rely on draw-for-draw stream alignment.
	a, b := New(9), New(9)
	a.Geometric(0)
	a.Geometric(1)
	a.Geometric(2)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("edge-case Geometric consumed random draws (diverged at %d)", i)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(3)
	for _, p := range []float64{0.5, 0.25, 1.0 / 64, 1.0 / 1024} {
		const draws = 200_000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(r.Geometric(p))
		}
		want := (1 - p) / p
		got := sum / draws
		// Std of the sample mean is √(1−p)/(p·√draws); allow 5σ.
		tol := 5 * math.Sqrt(1-p) / (p * math.Sqrt(draws))
		if math.Abs(got-want) > tol {
			t.Errorf("Geometric(%v) mean = %.4f, want %.4f ± %.4f", p, got, want, tol)
		}
	}
}

// geometricCapped is min(Geometric(p), limit) with the logarithm taken
// per draw: the reference GeometricCappedLn must match draw for draw.
func geometricCapped(r *Source, p float64, limit int64) int64 {
	if g := r.Geometric(p); g < limit {
		return g
	}
	return limit
}

func TestGeometricCapped(t *testing.T) {
	r := New(31)
	// The cap must bind exactly with the tail probability (1−p)^limit:
	// at p = 0.5, limit = 2, P(capped) = 0.25.
	const (
		p     = 0.5
		limit = int64(2)
		draws = 100_000
	)
	capped := 0
	for i := 0; i < draws; i++ {
		g := r.GeometricCappedLn(math.Log1p(-p), limit)
		if g < 0 || g > limit {
			t.Fatalf("GeometricCappedLn(ln(1−%v), %d) = %d out of [0, %d]", p, limit, g, limit)
		}
		if g == limit {
			capped++
		}
	}
	want := math.Pow(1-p, float64(limit))
	got := float64(capped) / draws
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(gap = limit) = %.4f, want (1−p)^limit = %.4f", got, want)
	}
	// Stream discipline: capped and uncapped draws consume one uniform.
	a, b := New(33), New(33)
	a.GeometricCappedLn(math.Log1p(-0.25), 1)
	b.Geometric(0.25)
	if a.Uint64() != b.Uint64() {
		t.Fatal("GeometricCappedLn consumes a different number of draws than Geometric")
	}
}

// TestGeometricLnMatchesGeometric pins the cached-log variants to the
// originals draw for draw: GeometricLn(Log1p(-p)) must return the same
// gap as Geometric(p) from the same stream state, across regular rates
// and every degenerate edge (p > 1 → NaN, p = 1 → −Inf, p = 0 → 0,
// p < 0 → positive lnQ). The engines precompute lnQ once per window and
// rely on this exactness for dense/event bit-identity.
func TestGeometricLnMatchesGeometric(t *testing.T) {
	ps := []float64{0.5, 0.25, 1.0 / 32, 1.0 / 64, 1.0 / 4096, 0, 1, 1.5, -0.25}
	a, b := New(17), New(17)
	for i := 0; i < 1000; i++ {
		p := ps[i%len(ps)]
		lnQ := math.Log1p(-p)
		ga, gb := a.Geometric(p), b.GeometricLn(lnQ)
		if ga != gb {
			t.Fatalf("draw %d: Geometric(%v) = %d, GeometricLn(%v) = %d", i, p, ga, lnQ, gb)
		}
	}
	// The streams must still be aligned after the mixed-edge sequence.
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged after equal gaps (draw %d)", i)
		}
	}
	// Capped variant, including the cap binding and not binding.
	a, b = New(19), New(19)
	for i := 0; i < 1000; i++ {
		p := ps[i%len(ps)]
		limit := int64(1 + i%7)
		ga, gb := geometricCapped(a, p, limit), b.GeometricCappedLn(math.Log1p(-p), limit)
		if ga != gb {
			t.Fatalf("draw %d: min(Geometric(%v), %d) = %d, GeometricCappedLn = %d", i, p, limit, ga, gb)
		}
	}
}

// chiSquareGeometric bins observed gap samples against the analytic
// geometric pmf — bins 0 … cut−1 plus one tail bin P(G ≥ cut) = (1−p)^cut
// — and returns the chi-square statistic (df = cut).
func chiSquareGeometric(samples []int64, p float64, cut int) float64 {
	counts := make([]float64, cut+1)
	for _, g := range samples {
		if g >= int64(cut) {
			counts[cut]++
		} else {
			counts[g]++
		}
	}
	n := float64(len(samples))
	var chi2 float64
	for k := 0; k < cut; k++ {
		exp := n * p * math.Pow(1-p, float64(k))
		d := counts[k] - exp
		chi2 += d * d / exp
	}
	expTail := n * math.Pow(1-p, float64(cut))
	d := counts[cut] - expTail
	chi2 += d * d / expTail
	return chi2
}

// TestGeometricChiSquareGOF checks the closed-form sampler against the
// analytic pmf at several rates, including the slot-loop regimes the
// engines use (CoreP·2 = 1/32 on the benchmark scenario).
func TestGeometricChiSquareGOF(t *testing.T) {
	// Critical values of chi² at 0.999 for the dfs used below.
	crit := map[int]float64{10: 29.6, 15: 37.7, 20: 45.3}
	cases := []struct {
		p   float64
		cut int
	}{
		{0.5, 10},
		{0.25, 15},
		{1.0 / 32, 20},
		{1.0 / 64, 20},
	}
	r := New(7)
	const draws = 100_000
	for _, tc := range cases {
		samples := make([]int64, draws)
		for i := range samples {
			samples[i] = r.Geometric(tc.p)
		}
		chi2 := chiSquareGeometric(samples, tc.p, tc.cut)
		if chi2 > crit[tc.cut] {
			t.Errorf("Geometric(%v): chi² = %.1f exceeds 0.999 critical value %.1f (df=%d)",
				tc.p, chi2, crit[tc.cut], tc.cut)
		}
	}
}

// TestGeometricMatchesBernoulliReplay is the exactness check behind the
// engines' skip-sampling refactor: at small p, gaps drawn in closed form
// and gaps obtained by replaying per-slot Bernoulli(p) coins (the old
// slot-loop discipline) must agree in distribution. A two-sample
// chi-square over binned gap lengths pins that down.
func TestGeometricMatchesBernoulliReplay(t *testing.T) {
	const (
		p     = 1.0 / 64 // the paper's coin ← rnd(1,64) regime
		draws = 60_000
		cut   = 20
	)
	gap := New(11)
	coin := New(12)

	binOf := func(g int64) int {
		// Geometric mass spreads thin at small p; bins of width mean/4
		// keep every expected count well above the chi-square minimum.
		width := int64(1 / (4 * p))
		b := int(g / width)
		if b > cut {
			b = cut
		}
		return b
	}
	var a, b [cut + 1]float64
	for i := 0; i < draws; i++ {
		a[binOf(gap.Geometric(p))]++
		g := int64(0)
		for !coin.Bernoulli(p) {
			g++
		}
		b[binOf(g)]++
	}
	// Two-sample chi-square with equal sample sizes:
	// Σ (aᵢ − bᵢ)² / (aᵢ + bᵢ), df ≈ cut. crit(0.999, df=20) ≈ 45.3.
	var chi2 float64
	for k := range a {
		if a[k]+b[k] == 0 {
			continue
		}
		d := a[k] - b[k]
		chi2 += d * d / (a[k] + b[k])
	}
	if chi2 > 45.3 {
		t.Errorf("closed-form vs Bernoulli-replay gaps: two-sample chi² = %.1f exceeds 45.3\n closed-form %v\n replay      %v",
			chi2, a, b)
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = r.Geometric(1.0 / 64)
	}
	_ = sink
}

// BenchmarkBernoulliReplayGap measures what one gap used to cost under
// the per-slot discipline Geometric replaces (E[G] ≈ 63 draws at p=1/64).
func BenchmarkBernoulliReplayGap(b *testing.B) {
	r := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		g := int64(0)
		for !r.Bernoulli(1.0 / 64) {
			g++
		}
		sink = g
	}
	_ = sink
}
