package runner

import (
	"fmt"
	"strconv"

	"multicast/internal/jsonenc"
	"multicast/internal/sim"
	"multicast/internal/stats"
)

// Collector streams the headline per-trial metrics into mergeable
// accumulators: the standard sink for statistical campaigns. Shards fill
// one Collector each (in trial order — Run guarantees that), marshal it
// to JSON, and any machine can Merge the artifacts into the summary the
// unsharded run would have produced (bit-identical while the total trial
// count stays within the accumulators' sample cap; see stats.Accumulator
// for the above-cap approximation).
type Collector struct {
	trials       int64
	slots        *stats.Accumulator
	maxEnergy    *stats.Accumulator
	sourceEnergy *stats.Accumulator
	meanEnergy   *stats.Accumulator
	eveEnergy    *stats.Accumulator
	allInformed  *stats.Accumulator
	invariants   sim.InvariantCounts
}

// NewCollector returns an empty collector with the default sample cap.
func NewCollector() *Collector { return NewCollectorCap(stats.DefaultSampleCap) }

// NewCollectorCap returns an empty collector whose accumulators retain
// up to capSamples raw samples each.
func NewCollectorCap(capSamples int) *Collector {
	return &Collector{
		slots:        stats.NewAccumulatorCap(capSamples),
		maxEnergy:    stats.NewAccumulatorCap(capSamples),
		sourceEnergy: stats.NewAccumulatorCap(capSamples),
		meanEnergy:   stats.NewAccumulatorCap(capSamples),
		eveEnergy:    stats.NewAccumulatorCap(capSamples),
		allInformed:  stats.NewAccumulatorCap(capSamples),
	}
}

// Add folds one trial's metrics in; it has the Sink signature.
func (c *Collector) Add(_ int, m sim.Metrics) error {
	c.trials++
	c.slots.AddInt64(m.Slots)
	c.maxEnergy.AddInt64(m.MaxNodeEnergy)
	c.sourceEnergy.AddInt64(m.SourceEnergy)
	c.meanEnergy.Add(m.MeanNodeEnergy)
	c.eveEnergy.AddInt64(m.EveEnergy)
	c.allInformed.AddInt64(m.AllInformedSlot)
	c.invariants.Add(m.Invariants)
	return nil
}

// Merge folds other into c, as if other's trials had been added here.
func (c *Collector) Merge(other *Collector) {
	c.trials += other.trials
	c.slots.Merge(other.slots)
	c.maxEnergy.Merge(other.maxEnergy)
	c.sourceEnergy.Merge(other.sourceEnergy)
	c.meanEnergy.Merge(other.meanEnergy)
	c.eveEnergy.Merge(other.eveEnergy)
	c.allInformed.Merge(other.allInformed)
	c.invariants.Add(other.invariants)
}

// Trials returns the number of trials folded in (across merges).
func (c *Collector) Trials() int64 { return c.trials }

// Invariants returns the summed safety-violation counts.
func (c *Collector) Invariants() sim.InvariantCounts { return c.invariants }

// Slots summarizes the per-trial slot counts.
func (c *Collector) Slots() stats.Summary { return c.slots.Summary() }

// MaxEnergy summarizes the per-trial max node energies.
func (c *Collector) MaxEnergy() stats.Summary { return c.maxEnergy.Summary() }

// SourceEnergy summarizes the per-trial source energies.
func (c *Collector) SourceEnergy() stats.Summary { return c.sourceEnergy.Summary() }

// MeanEnergy summarizes the per-trial mean node energies.
func (c *Collector) MeanEnergy() stats.Summary { return c.meanEnergy.Summary() }

// EveEnergy summarizes the per-trial adversary spends.
func (c *Collector) EveEnergy() stats.Summary { return c.eveEnergy.Summary() }

// AllInformed summarizes the per-trial all-informed slots (-1 = never).
func (c *Collector) AllInformed() stats.Summary { return c.allInformed.Summary() }

// namedAccumulator is one of a Collector's accumulators with the
// literal that precedes it on the wire: `,"<name>":`.
type namedAccumulator struct {
	field string
	acc   *stats.Accumulator
}

// name returns the accumulator's wire name.
func (a namedAccumulator) name() string { return a.field[2 : len(a.field)-2] }

// accumulators lists c's accumulators with their wire fields, in wire
// order.
func (c *Collector) accumulators() [6]namedAccumulator {
	return [6]namedAccumulator{
		{`,"slots":`, c.slots},
		{`,"max_node_energy":`, c.maxEnergy},
		{`,"source_energy":`, c.sourceEnergy},
		{`,"mean_node_energy":`, c.meanEnergy},
		{`,"eve_energy":`, c.eveEnergy},
		{`,"all_informed_slot":`, c.allInformed},
	}
}

// AppendJSON appends the full collector state as compact JSON for
// cross-machine merges — exactly the bytes encoding/json writes for the
// fields trials, slots, max_node_energy, source_energy,
// mean_node_energy, eve_energy, all_informed_slot and invariants, which
// artifact checksums depend on. A nil collector encodes as null.
func (c *Collector) AppendJSON(dst []byte) ([]byte, error) {
	if c == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, `{"trials":`...)
	dst = strconv.AppendInt(dst, c.trials, 10)
	var err error
	for _, a := range c.accumulators() {
		dst = append(dst, a.field...)
		if dst, err = a.acc.AppendJSON(dst); err != nil {
			return nil, err
		}
	}
	dst = append(dst, `,"invariants":`...)
	dst = c.invariants.AppendJSON(dst)
	return append(dst, '}'), nil
}

// MarshalJSON encodes the full collector state (see AppendJSON).
func (c *Collector) MarshalJSON() ([]byte, error) { return c.AppendJSON(nil) }

// UnmarshalJSON restores a collector marshalled by MarshalJSON,
// indented or not (see ReadJSON).
func (c *Collector) UnmarshalJSON(data []byte) error {
	compact, err := jsonenc.AppendCompact(nil, data)
	if err != nil {
		return err
	}
	r := jsonenc.NewReader(compact)
	var out Collector
	if err := out.ReadJSON(&r); err != nil {
		return err
	}
	if err := r.End(); err != nil {
		return err
	}
	*c = out
	return nil
}

// ReadJSON reads one collector as AppendJSON writes it from r. Every
// accumulator must account for every trial: each trial adds one sample
// to each, counted or, for a non-finite mean energy, dropped. On an
// error c is unchanged.
func (c *Collector) ReadJSON(r *jsonenc.Reader) error {
	out := Collector{
		slots:        new(stats.Accumulator),
		maxEnergy:    new(stats.Accumulator),
		sourceEnergy: new(stats.Accumulator),
		meanEnergy:   new(stats.Accumulator),
		eveEnergy:    new(stats.Accumulator),
		allInformed:  new(stats.Accumulator),
	}
	r.Expect(`{"trials":`)
	out.trials = r.Int(64)
	for _, a := range out.accumulators() {
		r.Expect(a.field)
		if r.Accept("null") {
			return fmt.Errorf("runner: collector state is missing an accumulator")
		}
		if err := a.acc.ReadJSON(r); err != nil {
			return err
		}
	}
	r.Expect(`,"invariants":`)
	out.invariants.ReadJSON(r)
	r.Expect("}")
	if err := r.Err(); err != nil {
		return err
	}
	for _, a := range out.accumulators() {
		if n := a.acc.Count() + a.acc.Dropped(); n != out.trials {
			return fmt.Errorf("runner: inconsistent collector state (trials=%d, %s count=%d dropped=%d)",
				out.trials, a.name(), a.acc.Count(), a.acc.Dropped())
		}
	}
	*c = out
	return nil
}
