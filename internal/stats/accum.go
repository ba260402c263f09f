package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"multicast/internal/jsonenc"
)

// DefaultSampleCap is the number of raw samples an Accumulator retains.
// Up to the cap, summaries are exact and independent of insertion or
// merge order; above it, see the Accumulator documentation.
const DefaultSampleCap = 8192

// Accumulator is a mergeable streaming aggregator for one scalar metric.
// It tracks count, min, max, and Welford mean/variance in O(1) state,
// and retains up to a cap of raw samples for quantiles.
//
// Determinism contract (the trial layer relies on this): as long as the
// total count stays within the sample cap, Summary is computed from the
// sorted retained samples, so it is a pure function of the sample
// multiset — bit-identical regardless of insertion order, worker
// scheduling, or how the samples were partitioned across merged
// accumulators. Above the cap the summary is a documented approximation:
// count, min, and max stay exact, mean/std come from the merged Welford
// state (exact up to float summation order), and quantiles are computed
// from the retained sample subset (first cap samples in insertion order;
// Merge concatenates and truncates at the cap).
//
// Non-finite samples (NaN, ±Inf) are dropped and tallied in Dropped
// rather than silently poisoning every downstream moment.
type Accumulator struct {
	count   int64
	dropped int64
	mean    float64 // Welford running mean
	m2      float64 // Welford sum of squared deviations
	min     float64
	max     float64
	samples []float64
	cap     int
}

// NewAccumulator returns an accumulator retaining DefaultSampleCap samples.
func NewAccumulator() *Accumulator { return NewAccumulatorCap(DefaultSampleCap) }

// NewAccumulatorCap returns an accumulator retaining up to capSamples raw
// samples (minimum 1).
func NewAccumulatorCap(capSamples int) *Accumulator {
	if capSamples < 1 {
		capSamples = 1
	}
	return &Accumulator{cap: capSamples}
}

// Add folds one sample into the accumulator. Non-finite samples are
// dropped (counted in Dropped).
func (a *Accumulator) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		a.dropped++
		return
	}
	a.count++
	if a.count == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.count)
	a.m2 += d * (x - a.mean)
	if len(a.samples) < a.cap {
		a.samples = append(a.samples, x)
	}
}

// AddInt64 folds one integer sample into the accumulator.
func (a *Accumulator) AddInt64(x int64) { a.Add(float64(x)) }

// Count returns the number of accumulated (non-dropped) samples.
func (a *Accumulator) Count() int64 { return a.count }

// Dropped returns the number of non-finite samples that were discarded.
func (a *Accumulator) Dropped() int64 { return a.dropped }

// Exact reports whether every accumulated sample is retained, i.e. the
// Summary is exact and independent of insertion/merge order.
func (a *Accumulator) Exact() bool { return a.count == int64(len(a.samples)) }

// Merge folds b into a, as if every sample added to b had been added to
// a. Count, min, max, and the Welford moments merge exactly; retained
// samples are concatenated and truncated at a's cap (see the type
// documentation for what that means above the cap). b is not modified.
func (a *Accumulator) Merge(b *Accumulator) {
	if b == nil || (b.count == 0 && b.dropped == 0) {
		return
	}
	a.dropped += b.dropped
	if b.count == 0 {
		return
	}
	if a.count == 0 {
		a.min, a.max = b.min, b.max
	} else {
		if b.min < a.min {
			a.min = b.min
		}
		if b.max > a.max {
			a.max = b.max
		}
	}
	// Chan et al. parallel-variance combination.
	na, nb := float64(a.count), float64(b.count)
	delta := b.mean - a.mean
	n := na + nb
	a.mean += delta * nb / n
	a.m2 += b.m2 + delta*delta*na*nb/n
	a.count += b.count
	room := a.cap - len(a.samples)
	if room > len(b.samples) {
		room = len(b.samples)
	}
	a.samples = append(a.samples, b.samples[:room]...)
}

// Summary renders the accumulated distribution. With no samples it
// returns the zero Summary (Count 0) except for the Dropped tally.
func (a *Accumulator) Summary() Summary {
	s := Summary{Count: int(a.count), Dropped: int(a.dropped)}
	if a.count == 0 {
		return s
	}
	sorted := append([]float64(nil), a.samples...)
	sort.Float64s(sorted)
	if a.Exact() {
		// All samples retained: recompute every moment from the sorted
		// sample so the result is a pure function of the multiset.
		var sum float64
		for _, x := range sorted {
			sum += x
		}
		s.Mean = sum / float64(len(sorted))
		var ss float64
		for _, x := range sorted {
			d := x - s.Mean
			ss += d * d
		}
		if len(sorted) > 1 {
			s.Std = math.Sqrt(ss / float64(len(sorted)-1))
		}
		s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	} else {
		s.Mean = a.mean
		if a.count > 1 {
			s.Std = math.Sqrt(a.m2 / float64(a.count-1))
		}
		s.Min, s.Max = a.min, a.max
	}
	s.Median = Quantile(sorted, 0.5)
	s.P25 = Quantile(sorted, 0.25)
	s.P75 = Quantile(sorted, 0.75)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// accumJSON is the Accumulator wire format, as decoded by
// UnmarshalJSON; AppendJSON writes the same fields in the same order.
// Floats survive the round trip exactly: the encoding is the shortest
// representation that parses back to the identical float64.
type accumJSON struct {
	Count   int64     `json:"count"`
	Dropped int64     `json:"dropped,omitempty"`
	Mean    float64   `json:"mean"`
	M2      float64   `json:"m2"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Cap     int       `json:"cap"`
	Samples []float64 `json:"samples"`
}

// AppendJSON appends the full accumulator state as compact JSON, so
// shards summarized on separate machines can be merged from their
// artifacts. The bytes are exactly what encoding/json writes for
// accumJSON (artifact checksums depend on it): retained samples encode
// as null when none were ever kept, min and max as 0 at count 0, where
// they are meaningless. A nil accumulator encodes as null. Non-finite
// state has no JSON form and is refused as encoding/json refuses it.
func (a *Accumulator) AppendJSON(dst []byte) ([]byte, error) {
	if a == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, a.count, 10)
	if a.dropped != 0 {
		dst = append(dst, `,"dropped":`...)
		dst = strconv.AppendInt(dst, a.dropped, 10)
	}
	var lo, hi float64
	if a.count > 0 {
		lo, hi = a.min, a.max
	}
	var err error
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"mean":`, a.mean}, {`,"m2":`, a.m2}, {`,"min":`, lo}, {`,"max":`, hi}} {
		dst = append(dst, f.key...)
		if dst, err = jsonenc.AppendFloat(dst, f.v); err != nil {
			return nil, err
		}
	}
	dst = append(dst, `,"cap":`...)
	dst = strconv.AppendInt(dst, int64(a.cap), 10)
	dst = append(dst, `,"samples":`...)
	if a.samples == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, x := range a.samples {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = jsonenc.AppendFloat(dst, x); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}"...), nil
}

// MarshalJSON encodes the full accumulator state (see AppendJSON).
func (a *Accumulator) MarshalJSON() ([]byte, error) { return a.AppendJSON(nil) }

// UnmarshalJSON restores an accumulator marshalled by MarshalJSON.
func (a *Accumulator) UnmarshalJSON(data []byte) error {
	var j accumJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Count < 0 || j.Dropped < 0 || j.Cap < 1 || int64(len(j.Samples)) > j.Count || len(j.Samples) > j.Cap {
		return fmt.Errorf("stats: invalid accumulator state (count=%d dropped=%d cap=%d samples=%d)",
			j.Count, j.Dropped, j.Cap, len(j.Samples))
	}
	for _, x := range j.Samples {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("stats: non-finite retained sample in accumulator JSON")
		}
	}
	*a = Accumulator{
		count: j.Count, dropped: j.Dropped,
		mean: j.Mean, m2: j.M2,
		min: j.Min, max: j.Max,
		samples: j.Samples, cap: j.Cap,
	}
	return nil
}
