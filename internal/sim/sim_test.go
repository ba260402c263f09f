package sim

import (
	"errors"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/radio"
	"multicast/internal/rng"
)

func mcCore(n int, t int64) func() (protocol.Algorithm, error) {
	return func() (protocol.Algorithm, error) { return core.NewMultiCastCore(core.Sim(), n, t) }
}

func mcast(n int) func() (protocol.Algorithm, error) {
	return func() (protocol.Algorithm, error) { return core.NewMultiCast(core.Sim(), n) }
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{N: 1, Algorithm: mcCore(64, 0)}); err == nil {
		t.Error("accepted N = 1")
	}
	if _, err := Run(Config{N: 64}); err == nil {
		t.Error("accepted nil Algorithm")
	}
	if _, err := Run(Config{N: 64, Algorithm: mcCore(64, 0), Budget: -1}); err == nil {
		t.Error("accepted negative budget")
	}
	if _, err := Run(Config{N: 64, Algorithm: mcCore(63, 0)}); err == nil {
		t.Error("algorithm constructor error not propagated")
	}
}

func TestRunNoAdversaryCompletes(t *testing.T) {
	m, err := Run(Config{N: 64, Algorithm: mcCore(64, 0), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Slots <= 0 {
		t.Error("no slots recorded")
	}
	if m.AllInformedSlot <= 0 || m.AllInformedSlot > m.Slots {
		t.Errorf("AllInformedSlot = %d out of (0, %d]", m.AllInformedSlot, m.Slots)
	}
	if m.FirstHaltSlot <= 0 || m.FirstHaltSlot > m.Slots {
		t.Errorf("FirstHaltSlot = %d invalid", m.FirstHaltSlot)
	}
	if m.EveEnergy != 0 {
		t.Errorf("Eve spent %d with no adversary", m.EveEnergy)
	}
	if m.MaxNodeEnergy <= 0 || m.MeanNodeEnergy <= 0 || m.MeanNodeEnergy > float64(m.MaxNodeEnergy) {
		t.Errorf("energy metrics inconsistent: max=%d mean=%v", m.MaxNodeEnergy, m.MeanNodeEnergy)
	}
	if m.FirstHelperSlot != -1 {
		t.Error("two-status algorithm reported a helper")
	}
	if m.Invariants.Any() {
		t.Errorf("invariant violations: %+v", m.Invariants)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	cfg := Config{N: 64, Algorithm: mcast(64), Adversary: adversary.RandomFraction(0.5), Budget: 30_000, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	cfg := Config{N: 64, Algorithm: mcast(64), Seed: 1}
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.Slots == b.Slots && a.MaxNodeEnergy == b.MaxNodeEnergy && a.AllInformedSlot == b.AllInformedSlot {
		t.Fatal("different seeds produced identical executions (suspicious)")
	}
}

func TestEveBudgetEnforced(t *testing.T) {
	const budget = 5000
	m, err := Run(Config{
		N: 64, Algorithm: mcCore(64, budget),
		Adversary: adversary.FullBurst(0), Budget: budget, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.EveEnergy > budget {
		t.Fatalf("Eve spent %d > budget %d", m.EveEnergy, budget)
	}
	// A full-burst jammer against 32 channels burns its whole budget.
	if m.EveEnergy < budget-32 {
		t.Fatalf("Eve spent only %d of %d (truncation too aggressive)", m.EveEnergy, budget)
	}
}

func TestJammingDelaysTermination(t *testing.T) {
	quiet, err := Run(Config{N: 64, Algorithm: mcCore(64, 0), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	jammed, err := Run(Config{
		N: 64, Algorithm: mcCore(64, 50_000),
		Adversary: adversary.FullBurst(0), Budget: 50_000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if jammed.Slots <= quiet.Slots {
		t.Fatalf("jamming did not delay termination: %d vs %d", jammed.Slots, quiet.Slots)
	}
	if jammed.MaxNodeEnergy <= quiet.MaxNodeEnergy {
		t.Fatalf("jamming did not raise node cost: %d vs %d", jammed.MaxNodeEnergy, quiet.MaxNodeEnergy)
	}
}

func TestMaxSlotsValve(t *testing.T) {
	// An unbounded jammer with an enormous budget blocks MultiCastCore
	// long past a tiny MaxSlots.
	_, err := Run(Config{
		N: 64, Algorithm: mcCore(64, 1<<40),
		Adversary: adversary.FullBurst(0), Budget: 1 << 40,
		Seed: 1, MaxSlots: 2000,
	})
	if !errors.Is(err, ErrMaxSlots) {
		t.Fatalf("err = %v, want ErrMaxSlots", err)
	}
}

func TestSafetyInvariantsAcrossSeeds(t *testing.T) {
	// Lemmas 4.2/5.2: no premature halts for Core and MultiCast across
	// seeds and adversaries.
	algs := map[string]func() (protocol.Algorithm, error){
		"core":  mcCore(64, 10_000),
		"mcast": mcast(64),
	}
	advs := map[string]adversary.Factory{
		"none":   adversary.None(),
		"burst":  adversary.FullBurst(0),
		"rand":   adversary.RandomFraction(0.5),
		"pulse":  adversary.Pulse(64, 32, 0.9, 0),
		"sweep":  adversary.Sweep(16),
		"window": adversary.StopAfter(adversary.BlockFraction(0.95), 3000),
	}
	for an, alg := range algs {
		for vn, adv := range advs {
			for i := 0; i < 6; i++ {
				m, err := Run(Config{
					N: 64, Algorithm: alg, Adversary: adv, Budget: 10_000, Seed: 100 + uint64(i),
				})
				if err != nil {
					t.Errorf("%s/%s trial %d: %v", an, vn, i, err)
					continue
				}
				if m.Invariants.Any() {
					t.Errorf("%s/%s trial %d: invariants violated: %+v", an, vn, i, m.Invariants)
				}
				if m.AllInformedSlot < 0 {
					t.Errorf("%s/%s trial %d: some node never informed", an, vn, i)
				}
			}
		}
	}
}

func TestInterruptAborts(t *testing.T) {
	// A pre-fired interrupt must stop either engine near-immediately,
	// long before the jammed execution would end on its own.
	interrupt := make(chan struct{})
	close(interrupt)
	for _, eng := range []Engine{EngineDense, EngineEvent} {
		m, err := Run(Config{
			N: 64, Algorithm: mcCore(64, 1<<40),
			Adversary: adversary.FullBurst(0), Budget: 1 << 40,
			Seed: 1, Engine: eng, Interrupt: interrupt,
		})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("engine %v: err = %v, want ErrInterrupted", eng, err)
		}
		if m.Slots > interruptStride {
			t.Errorf("engine %v: ran %d slots after interrupt (stride %d)", eng, m.Slots, interruptStride)
		}
	}
}

func TestInterruptNilIsNoop(t *testing.T) {
	cfg := Config{N: 64, Algorithm: mcast(64), Adversary: adversary.RandomFraction(0.5), Budget: 30_000, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Interrupt = make(chan struct{}) // open channel: never fires
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("an idle Interrupt channel changed the execution")
	}
}

// countingObserver checks the observer plumbing.
type countingObserver struct {
	slots    int64
	lastSlot int64
	maxJam   int
	informed int
	channels int
}

func (o *countingObserver) Slot(slot int64, channels, jammed, listeners, broadcasters, informed, halted int) {
	o.slots++
	o.lastSlot = slot
	if jammed > o.maxJam {
		o.maxJam = jammed
	}
	o.informed = informed
	o.channels = channels
}

func TestObserverCallbacks(t *testing.T) {
	obs := &countingObserver{}
	m, err := Run(Config{
		N: 64, Algorithm: mcCore(64, 2000),
		Adversary: adversary.BlockFraction(0.5), Budget: 2000,
		Seed: 9, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.slots != m.Slots {
		t.Errorf("observer saw %d slots, metrics say %d", obs.slots, m.Slots)
	}
	if obs.lastSlot != m.Slots-1 {
		t.Errorf("last observed slot %d, want %d", obs.lastSlot, m.Slots-1)
	}
	if obs.maxJam != 16 { // half of 32 channels
		t.Errorf("max jam seen %d, want 16", obs.maxJam)
	}
	if obs.informed != 64 {
		t.Errorf("final informed count %d, want 64", obs.informed)
	}
	if obs.channels != 32 {
		t.Errorf("channels %d, want n/2 = 32", obs.channels)
	}
}

func TestAdvEndToEndWithHelpers(t *testing.T) {
	if testing.Short() {
		t.Skip("MultiCastAdv end-to-end is slow")
	}
	m, err := Run(Config{
		N: 64,
		Algorithm: func() (protocol.Algorithm, error) {
			return core.NewMultiCastAdv(core.Sim())
		},
		Seed: 11, MaxSlots: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FirstHelperSlot <= 0 {
		t.Error("MultiCastAdv never produced a helper")
	}
	if !(m.AllInformedSlot <= m.FirstHelperSlot && m.FirstHelperSlot <= m.FirstHaltSlot) {
		t.Errorf("event order violated: informed@%d helper@%d halt@%d",
			m.AllInformedSlot, m.FirstHelperSlot, m.FirstHaltSlot)
	}
	if m.Invariants.Any() {
		t.Errorf("invariants violated: %+v", m.Invariants)
	}
}

func TestAdvCEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("MultiCastAdv(C) end-to-end is slow")
	}
	m, err := Run(Config{
		N: 64,
		Algorithm: func() (protocol.Algorithm, error) {
			return core.NewMultiCastAdvC(core.Sim(), 16)
		},
		Seed: 13, MaxSlots: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Invariants.Any() {
		t.Errorf("invariants violated: %+v", m.Invariants)
	}
	if m.FirstHelperSlot <= 0 {
		t.Error("no helper appeared")
	}
}

func TestSingleNodeEnergyAudit(t *testing.T) {
	// Cross-check the engine's MaxNodeEnergy against an independent count
	// of listen/broadcast actions using an instrumented algorithm.
	inner, err := core.NewMultiCastCore(core.Sim(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingAlg{inner: inner, counts: make(map[int]int64)}
	m, err := Run(Config{
		N:         64,
		Algorithm: func() (protocol.Algorithm, error) { return counter, nil },
		Seed:      21,
	})
	if err != nil {
		t.Fatal(err)
	}
	var max int64
	for _, c := range counter.counts {
		if c > max {
			max = c
		}
	}
	if max != m.MaxNodeEnergy {
		t.Fatalf("independent action count %d != metered MaxNodeEnergy %d", max, m.MaxNodeEnergy)
	}
}

// countingAlg wraps an algorithm and counts non-idle actions per node.
type countingAlg struct {
	inner  protocol.Algorithm
	counts map[int]int64
}

func (c *countingAlg) Name() string            { return c.inner.Name() }
func (c *countingAlg) Channels(slot int64) int { return c.inner.Channels(slot) }
func (c *countingAlg) NewNode(id int, source bool, r *rng.Source) protocol.Node {
	return &countingNode{Node: c.inner.NewNode(id, source, r), id: id, counts: c.counts}
}

type countingNode struct {
	protocol.Node
	id     int
	counts map[int]int64
}

func (n *countingNode) Step(slot int64) protocol.Action {
	a := n.Node.Step(slot)
	if a.Kind != protocol.Idle {
		n.counts[n.id]++
	}
	return a
}

var _ radio.Payload // keep the import for documentation cross-references

func TestAdaptiveEveReceivesObservations(t *testing.T) {
	// The reactive jammer must actually spend energy: it can only do so
	// if the engine feeds it channel observations.
	m, err := Run(Config{
		N: 64, Algorithm: mcCore(64, 10_000),
		Adversary: adversary.Reactive(1.0), Budget: 10_000, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.EveEnergy == 0 {
		t.Fatal("reactive Eve never jammed — observations not delivered")
	}
	if m.Invariants.Any() {
		t.Fatalf("invariants violated under adaptive Eve: %+v", m.Invariants)
	}
	if m.AllInformedSlot < 0 {
		t.Fatal("reactive Eve prevented broadcast entirely (conjecture §8 violated badly)")
	}
}

func TestAdaptiveEveBudgetStillEnforced(t *testing.T) {
	const budget = 300
	m, err := Run(Config{
		N: 64, Algorithm: mcCore(64, budget),
		Adversary: adversary.Camper(50, 32), Budget: budget, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.EveEnergy > budget {
		t.Fatalf("adaptive Eve spent %d > budget %d", m.EveEnergy, budget)
	}
}
