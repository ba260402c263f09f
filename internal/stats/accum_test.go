package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func accumOf(xs ...float64) *Accumulator {
	a := NewAccumulator()
	for _, x := range xs {
		a.Add(x)
	}
	return a
}

func TestAccumulatorMatchesSummarize(t *testing.T) {
	xs := []float64{4, 1, 3, 3, 9, 0.5, -2, 7}
	got := accumOf(xs...).Summary()
	want := Summarize(xs)
	if got != want {
		t.Fatalf("accumulator summary %+v != Summarize %+v", got, want)
	}
}

func TestAccumulatorEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"single", []float64{5}, Summary{Count: 1, Mean: 5, Min: 5, Max: 5, Median: 5, P25: 5, P75: 5, P95: 5}},
		{"NaN only", []float64{math.NaN()}, Summary{Dropped: 1}},
		{"Inf dropped", []float64{1, math.Inf(-1), 3}, Summary{
			Count: 2, Dropped: 1, Mean: 2, Std: math.Sqrt2, Min: 1, Max: 3,
			Median: 2, P25: 1.5, P75: 2.5, P95: 2.9,
		}},
	}
	for _, tc := range cases {
		got := accumOf(tc.in...).Summary()
		if got.Count != tc.want.Count || got.Dropped != tc.want.Dropped ||
			!almost(got.Mean, tc.want.Mean, 1e-12) || !almost(got.Std, tc.want.Std, 1e-12) ||
			got.Min != tc.want.Min || got.Max != tc.want.Max ||
			!almost(got.P95, tc.want.P95, 1e-12) {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// The determinism contract: under the cap, any partition of the sample
// multiset into shard accumulators, merged in any order, yields a
// bit-identical Summary.
func TestAccumulatorMergePartitionInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64() * 100
	}
	whole := accumOf(xs...)
	want := whole.Summary()

	for _, k := range []int{1, 2, 3, 7} {
		shards := make([]*Accumulator, k)
		for i := range shards {
			shards[i] = NewAccumulator()
		}
		for i, x := range xs {
			shards[i%k].Add(x)
		}
		// Merge right-to-left to exercise a non-trivial merge order.
		merged := NewAccumulator()
		for i := k - 1; i >= 0; i-- {
			merged.Merge(shards[i])
		}
		if got := merged.Summary(); got != want {
			t.Errorf("k=%d: merged summary %+v != whole %+v", k, got, want)
		}
		if !merged.Exact() {
			t.Errorf("k=%d: merged accumulator lost exactness below the cap", k)
		}
	}
}

func TestAccumulatorOverCap(t *testing.T) {
	a := NewAccumulatorCap(4)
	for x := 1.0; x <= 10; x++ {
		a.Add(x)
	}
	if a.Exact() {
		t.Fatal("Exact() true above the cap")
	}
	s := a.Summary()
	if s.Count != 10 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("count/min/max must stay exact above the cap: %+v", s)
	}
	if !almost(s.Mean, 5.5, 1e-12) {
		t.Errorf("Welford mean = %v, want 5.5", s.Mean)
	}
	wantStd := math.Sqrt(110.0 / 12) // sample variance of 1..10 is 55/6
	if !almost(s.Std, wantStd, 1e-12) {
		t.Errorf("Welford std = %v, want %v", s.Std, wantStd)
	}
	// Quantiles degrade to the retained prefix {1,2,3,4} — approximate
	// by design, but still ordered and in range.
	if s.Median < s.Min || s.Median > s.Max {
		t.Errorf("approximate median %v out of [min, max]", s.Median)
	}
}

func TestAccumulatorMergeWelfordOverCap(t *testing.T) {
	// Above the cap the Welford path carries mean/std; merging two halves
	// must agree with one pass over the concatenation to float accuracy.
	r := rand.New(rand.NewSource(7))
	a, b := NewAccumulatorCap(2), NewAccumulatorCap(2)
	all := NewAccumulatorCap(2)
	for i := 0; i < 1000; i++ {
		x := r.ExpFloat64()
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		all.Add(x)
	}
	a.Merge(b)
	sa, sw := a.Summary(), all.Summary()
	if sa.Count != sw.Count || sa.Min != sw.Min || sa.Max != sw.Max {
		t.Fatalf("exact fields diverged: %+v vs %+v", sa, sw)
	}
	if !almost(sa.Mean, sw.Mean, 1e-9) || !almost(sa.Std, sw.Std, 1e-9) {
		t.Errorf("merged moments %v/%v vs single-pass %v/%v", sa.Mean, sa.Std, sw.Mean, sw.Std)
	}
}

func TestAccumulatorJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := NewAccumulator()
	for i := 0; i < 257; i++ {
		a.Add(r.NormFloat64() * 1e6)
	}
	a.Add(math.NaN()) // dropped tally must survive too
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b Accumulator
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Summary(), a.Summary(); got != want {
		t.Fatalf("round-tripped summary %+v != original %+v", got, want)
	}
	if b.Dropped() != 1 {
		t.Errorf("Dropped = %d after round trip, want 1", b.Dropped())
	}

	// Merging a round-tripped shard equals merging the live shard.
	other := accumOf(1, 2, 3)
	m1 := accumOf(1, 2, 3)
	m1.Merge(a)
	other.Merge(&b)
	if other.Summary() != m1.Summary() {
		t.Error("merge via JSON differs from live merge")
	}
}

func TestAccumulatorJSONRejectsCorrupt(t *testing.T) {
	for _, bad := range []string{
		`{"count":-1,"cap":4,"samples":[]}`,
		`{"count":0,"cap":0,"samples":[]}`,
		`{"count":1,"cap":4,"samples":[1,2]}`,
		`{"count":8,"cap":2,"samples":[1,2,3]}`,
		`{"count":1,"dropped":-1,"cap":4,"samples":[1]}`,
	} {
		var a Accumulator
		if err := json.Unmarshal([]byte(bad), &a); err == nil {
			t.Errorf("accepted corrupt state %s", bad)
		}
	}
}

// accumJSON is the Accumulator wire format as encoding/json writes it:
// the reference AppendJSON must reproduce byte for byte.
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

// Non-finite state has no JSON form: wherever it sits, AppendJSON and
// MarshalJSON must refuse it exactly as encoding/json refuses the wire
// struct, and finite state must encode to the same bytes.
func TestAccumulatorAppendJSONMatchesEncodingJSON(t *testing.T) {
	base := func() *Accumulator {
		return &Accumulator{count: 2, dropped: 1, mean: 1.5, m2: 0.5, min: 1, max: 2, samples: []float64{1, 2}, cap: 4}
	}
	wire := func(a *Accumulator) accumJSON {
		return accumJSON{Count: a.count, Dropped: a.dropped, Mean: a.mean, M2: a.m2,
			Min: a.min, Max: a.max, Cap: a.cap, Samples: a.samples}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*Accumulator){
			"mean":   func(a *Accumulator) { a.mean = bad },
			"m2":     func(a *Accumulator) { a.m2 = bad },
			"min":    func(a *Accumulator) { a.min = bad },
			"max":    func(a *Accumulator) { a.max = bad },
			"sample": func(a *Accumulator) { a.samples[1] = bad },
		} {
			a := base()
			set(a)
			_, want := json.Marshal(wire(a))
			if want == nil {
				t.Fatalf("%s=%v: encoding/json accepted it", field, bad)
			}
			if _, err := a.AppendJSON(nil); err == nil || err.Error() != want.Error() {
				t.Errorf("%s=%v: AppendJSON err %v, encoding/json: %v", field, bad, err, want)
			}
			if _, err := json.Marshal(a); err == nil {
				t.Errorf("%s=%v: MarshalJSON accepted it", field, bad)
			}
		}
	}
	a := base()
	want, err := json.Marshal(wire(a))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := a.AppendJSON([]byte("prefix")); err != nil || string(got) != "prefix"+string(want) {
		t.Errorf("AppendJSON = %s, %v; want prefix%s", got, err, want)
	}
	var nilAcc *Accumulator
	if got, err := nilAcc.AppendJSON(nil); err != nil || string(got) != "null" {
		t.Errorf("nil AppendJSON = %s, %v; want null", got, err)
	}
}

func TestAccumulatorEmptyJSON(t *testing.T) {
	data, err := json.Marshal(NewAccumulator())
	if err != nil {
		t.Fatal(err)
	}
	var a Accumulator
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 0 || a.Summary() != (Summary{}) {
		t.Fatalf("empty round trip gave %+v", a.Summary())
	}
}
