package runner

import (
	"encoding/json"
	"fmt"
	"strconv"

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

// collectorJSON is the Collector wire format (the payload of shard
// summary files written by cmd/mcast -summary-out), as decoded by
// UnmarshalJSON; AppendJSON writes the same fields in the same order.
type collectorJSON struct {
	Trials       int64               `json:"trials"`
	Slots        *stats.Accumulator  `json:"slots"`
	MaxEnergy    *stats.Accumulator  `json:"max_node_energy"`
	SourceEnergy *stats.Accumulator  `json:"source_energy"`
	MeanEnergy   *stats.Accumulator  `json:"mean_node_energy"`
	EveEnergy    *stats.Accumulator  `json:"eve_energy"`
	AllInformed  *stats.Accumulator  `json:"all_informed_slot"`
	Invariants   sim.InvariantCounts `json:"invariants"`
}

// namedAccumulator is one of a Collector's accumulators with its wire
// name.
type namedAccumulator struct {
	name string
	acc  *stats.Accumulator
}

// accumulators lists c's accumulators with their wire names, in wire
// order.
func (c *Collector) accumulators() [6]namedAccumulator {
	return [6]namedAccumulator{
		{"slots", c.slots},
		{"max_node_energy", c.maxEnergy},
		{"source_energy", c.sourceEnergy},
		{"mean_node_energy", c.meanEnergy},
		{"eve_energy", c.eveEnergy},
		{"all_informed_slot", c.allInformed},
	}
}

// AppendJSON appends the full collector state as compact JSON for
// cross-machine merges — exactly the bytes encoding/json writes for
// collectorJSON, which artifact checksums depend on. A nil collector
// encodes as null.
func (c *Collector) AppendJSON(dst []byte) ([]byte, error) {
	if c == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, `{"trials":`...)
	dst = strconv.AppendInt(dst, c.trials, 10)
	var err error
	for _, a := range c.accumulators() {
		dst = append(dst, `,"`...)
		dst = append(dst, a.name...)
		dst = append(dst, `":`...)
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

// UnmarshalJSON restores a collector marshalled by MarshalJSON. Every
// accumulator must account for every trial: each trial adds one sample
// to each, counted or, for a non-finite mean energy, dropped.
func (c *Collector) UnmarshalJSON(data []byte) error {
	j := collectorJSON{
		Slots:        stats.NewAccumulator(),
		MaxEnergy:    stats.NewAccumulator(),
		SourceEnergy: stats.NewAccumulator(),
		MeanEnergy:   stats.NewAccumulator(),
		EveEnergy:    stats.NewAccumulator(),
		AllInformed:  stats.NewAccumulator(),
	}
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	out := Collector{
		trials:       j.Trials,
		slots:        j.Slots,
		maxEnergy:    j.MaxEnergy,
		sourceEnergy: j.SourceEnergy,
		meanEnergy:   j.MeanEnergy,
		eveEnergy:    j.EveEnergy,
		allInformed:  j.AllInformed,
		invariants:   j.Invariants,
	}
	for _, a := range out.accumulators() {
		// An explicit JSON null overwrites the pre-seeded accumulator
		// with nil; reject that as corrupt rather than crashing later.
		if a.acc == nil {
			return fmt.Errorf("runner: collector state is missing an accumulator")
		}
		if n := a.acc.Count() + a.acc.Dropped(); n != j.Trials {
			return fmt.Errorf("runner: inconsistent collector state (trials=%d, %s count=%d dropped=%d)",
				j.Trials, a.name, a.acc.Count(), a.acc.Dropped())
		}
	}
	*c = out
	return nil
}
