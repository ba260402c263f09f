// Package stats aggregates per-trial metrics into summaries and provides
// the log-log slope fits the experiment harness uses to compare measured
// scaling exponents with the paper's theorems.
//
// The cross-machine merge guarantees of the trial and sweep layers rest
// on Accumulator's determinism contract: while an accumulator's total
// count stays within its sample cap (DefaultSampleCap unless overridden)
// its Summary is a pure function of the sample multiset — bit-identical
// however the samples were ordered, partitioned across machines, or
// merged. Above the cap the summary is a documented approximation:
// count, min, max stay exact, mean/std come from merged Welford state,
// and quantiles are computed from the retained sample subset. Campaign
// tooling (internal/runner.Collector, cmd/mcast -merge) inherits exactly
// these semantics.
package stats

import (
	"fmt"
	"math"
)

// Summary describes the distribution of one scalar metric across trials.
type Summary struct {
	Count                 int
	Dropped               int // non-finite samples excluded from the moments
	Mean, Std             float64
	Min, Max              float64
	Median, P25, P75, P95 float64
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted (ascending) data
// using linear interpolation. Empty input returns 0 (the documented zero
// path — callers that must distinguish "no data" check len first).
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.3g min=%.4g med=%.4g p95=%.4g max=%.4g",
		s.Count, s.Mean, s.Std, s.Min, s.Median, s.P95, s.Max)
}

// Fit is an ordinary least-squares line y = Slope·x + Intercept with the
// coefficient of determination.
type Fit struct {
	Slope, Intercept, R2 float64
}

// LinearFit fits y = a·x + b by least squares. It panics unless
// len(xs) == len(ys) ≥ 2 and the xs are not all equal.
func LinearFit(xs, ys []float64) Fit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LinearFit needs two equal-length samples of size ≥ 2")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: LinearFit with constant x")
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit
}

// LogLogSlope fits log₂(y) against log₂(x) and returns the power-law
// exponent: y ∝ x^Slope. Points with non-positive coordinates are skipped;
// it panics if fewer than two remain.
func LogLogSlope(xs, ys []float64) Fit {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log2(xs[i]))
			ly = append(ly, math.Log2(ys[i]))
		}
	}
	return LinearFit(lx, ly)
}
