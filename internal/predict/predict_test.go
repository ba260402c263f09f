package predict

import (
	"context"
	"math"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
	"multicast/internal/rng"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

func TestGoodChannelsBasics(t *testing.T) {
	// One informed node broadcasting w.p. 1 on 1 channel, unjammed:
	// exactly one good channel.
	if got := GoodChannels(1, 1, 1, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("GoodChannels(1,1,1,1) = %v, want 1", got)
	}
	// Degenerate inputs.
	if GoodChannels(0, 0.5, 4, 4) != 0 || GoodChannels(1, 0.5, 0, 0) != 0 {
		t.Error("degenerate inputs must be 0")
	}
	// Jamming scales linearly: half the channels clear → half the goods.
	full := GoodChannels(32, 0.25, 64, 64)
	half := GoodChannels(32, 0.25, 64, 32)
	if math.Abs(full-2*half) > 1e-9 {
		t.Errorf("good channels not linear in unjammed: %v vs 2×%v", full, half)
	}
}

func TestGoodChannelsMonteCarlo(t *testing.T) {
	// Claim 4.1.1's E[F] against a direct Monte Carlo of the process.
	const (
		tInformed = 100
		c         = 128
		p         = 0.25
		trials    = 20000
	)
	r := rng.New(7)
	var sum float64
	counts := make([]int, c)
	for trial := 0; trial < trials; trial++ {
		for i := range counts {
			counts[i] = 0
		}
		for node := 0; node < tInformed; node++ {
			if r.Bernoulli(p) {
				counts[r.Intn(c)]++
			}
		}
		good := 0
		for _, k := range counts {
			if k == 1 {
				good++
			}
		}
		sum += float64(good)
	}
	mc := sum / trials
	want := GoodChannels(tInformed, p, c, c)
	if math.Abs(mc-want)/want > 0.02 {
		t.Errorf("Monte Carlo %v vs formula %v", mc, want)
	}
}

func TestInformProbMonotonicity(t *testing.T) {
	// More jamming, lower probability; more collisions at huge t, lower
	// probability than the sweet spot.
	base := InformProb(64, 256, 0.125, 128, 0)
	if jammed := InformProb(64, 256, 0.125, 128, 0.9); jammed >= base {
		t.Errorf("jamming did not reduce inform probability: %v vs %v", jammed, base)
	}
	if InformProb(0, 256, 0.125, 128, 0) != 0 {
		t.Error("t=0 must give probability 0")
	}
	if InformProb(256, 256, 0.5, 128, 0) != 0 {
		t.Error("t=n must give probability 0")
	}
}

func TestEpidemicSlotsAgainstSimulation(t *testing.T) {
	// The mean-field estimate must land within a factor ~2.5 of the
	// simulated jam-free informing time of MultiCastCore.
	const n = 256
	params := core.Sim()
	want := EpidemicSlots(n, params.CoreP, n/2)

	var ms []sim.Metrics
	err := runner.Run(context.Background(), sim.Config{
		N: n,
		Algorithm: func() (protocol.Algorithm, error) {
			return core.NewMultiCastCore(params, n, 0)
		},
		Seed: 3,
	}, runner.SweepPlan{Trials: 10}, func(_ int, m sim.Metrics) error {
		ms = append(ms, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, m := range ms {
		mean += float64(m.AllInformedSlot)
	}
	mean /= float64(len(ms))
	lo, hi := mean/2.5, mean*2.5
	if float64(want) < lo || float64(want) > hi {
		t.Errorf("EpidemicSlots = %d, simulated mean informing time %v (accept [%v, %v])",
			want, mean, lo, hi)
	}
}

func TestStepTwoExpectationsAgainstNodeCounters(t *testing.T) {
	// Drive a real MultiCastAdv population through one step two and
	// compare a node's counters with the closed forms. Use phase (i, j)
	// with every node informed.
	const n = 64
	params := core.Sim()
	sched := core.NewAdvSchedule(params)
	const i, j = 12, 5
	r := float64(sched.StepLen(i, j))
	p := sched.Prob(i, j)
	c := sched.ChannelsFor(j)
	want := StepTwoExpectations(n, n, p, c, r)

	// Monte Carlo of the step-two process itself (all informed).
	const trials = 400
	src := rng.New(11)
	var nm, nmPrime, ns, nn float64
	counts := make([]int, c)
	for trial := 0; trial < trials; trial++ {
		for slot := int64(0); slot < int64(r); slot++ {
			for i := range counts {
				counts[i] = 0
			}
			// n−1 peers act.
			for peer := 0; peer < n-1; peer++ {
				u := src.Float64()
				if u >= p && u < 2*p {
					counts[src.Intn(c)]++
				}
			}
			// The observed node listens w.p. p.
			if !src.Bernoulli(p) {
				continue
			}
			ch := src.Intn(c)
			switch {
			case counts[ch] == 0:
				ns++
			case counts[ch] == 1:
				nm++
				nmPrime++
			default:
				nn++
			}
		}
	}
	nm /= trials
	nmPrime /= trials
	ns /= trials
	nn /= trials
	close := func(name string, got, want float64) {
		// Tolerances scale with the Poisson std of the counter.
		tol := 5 * math.Sqrt(want/trials)
		if tol < 0.5 {
			tol = 0.5
		}
		if math.Abs(got-want) > tol {
			t.Errorf("%s: Monte Carlo %v vs formula %v (tol %v)", name, got, want, tol)
		}
	}
	close("Nm", nm, want.Nm)
	close("N'm", nmPrime, want.NmPrime)
	close("Ns", ns, want.Ns)
	close("Nn", nn, want.Nn)
}

func TestHelperEpochOrdering(t *testing.T) {
	params := core.Sim()
	he := HelperEpoch(params, 64, 0.05)
	if he <= lg(64) {
		t.Fatalf("HelperEpoch = %d, must exceed lg n (Lemma 6.1)", he)
	}
	ha := HaltEpoch(params, 64, 0.05)
	if ha < he+params.HelperGap {
		t.Fatalf("HaltEpoch = %d < HelperEpoch %d + gap %d", ha, he, params.HelperGap)
	}
}

// epochStart is the first slot of epoch i in sched.
func epochStart(sched *core.AdvSchedule, i int) int64 {
	k := 0
	for sched.Window(k).I < i {
		k++
	}
	return sched.Window(k).Start
}

func TestHelperEpochPredictsSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full MultiCastAdv execution")
	}
	const n = 64
	params := core.Sim()
	m, err := sim.Run(sim.Config{
		N: n,
		Algorithm: func() (protocol.Algorithm, error) {
			return core.NewMultiCastAdv(params)
		},
		Seed:     31,
		MaxSlots: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first simulated helper must appear within ±3 epochs of the
	// mean-field prediction (individual nodes cross the thresholds a few
	// epochs around the expectation crossing).
	he := HelperEpoch(params, n, 0)
	sched := core.NewAdvSchedule(params)
	lo, hi := epochStart(sched, he-3), epochStart(sched, he+4)
	if m.FirstHelperSlot < lo || m.FirstHelperSlot > hi {
		t.Errorf("first helper at slot %d, prediction epoch %d → window [%d, %d]",
			m.FirstHelperSlot, he, lo, hi)
	}
	// And the whole run must end within a couple of epochs of HaltEpoch.
	ha := HaltEpoch(params, n, 0)
	if end := epochStart(sched, ha+4); m.Slots > end {
		t.Errorf("run ended at slot %d, past predicted halt epoch %d (slot %d)", m.Slots, ha, end)
	}
}

func TestCoreSlotsPrediction(t *testing.T) {
	const n = 256
	params := core.Sim()
	for _, budget := range []int64{0, 10_000, 100_000} {
		m, err := sim.Run(sim.Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCastCore(params, n, budget)
			},
			Adversary: adversary.FullBurst(0),
			Budget:    budget,
			Seed:      17,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := CoreSlots(params, n, budget)
		ratio := float64(m.Slots) / float64(want)
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("T=%d: simulated %d slots vs predicted %d (ratio %.2f)",
				budget, m.Slots, want, ratio)
		}
	}
}

func TestMultiCastPredictions(t *testing.T) {
	const n = 256
	params := core.Sim()
	for _, budget := range []int64{10_000, 100_000, 1_000_000} {
		m, err := sim.Run(sim.Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCast(params, n)
			},
			Adversary: adversary.FullBurst(0),
			Budget:    budget,
			Seed:      19,
			MaxSlots:  1 << 26,
		})
		if err != nil {
			t.Fatal(err)
		}
		slots := MultiCastSlots(params, n, budget)
		if r := float64(m.Slots) / float64(slots); r < 0.3 || r > 3 {
			t.Errorf("T=%d: simulated %d slots vs predicted %d", budget, m.Slots, slots)
		}
		cost := MultiCastCost(params, n, budget)
		if r := float64(m.MaxNodeEnergy) / cost; r < 0.3 || r > 3 {
			t.Errorf("T=%d: simulated cost %d vs predicted %.0f", budget, m.MaxNodeEnergy, cost)
		}
	}
}

func TestMultiCastLastIterationMonotone(t *testing.T) {
	params := core.Sim()
	prev := -1
	for _, budget := range []int64{0, 1000, 10_000, 100_000, 1_000_000, 10_000_000} {
		l := MultiCastLastIteration(params, 256, budget)
		if l < prev {
			t.Fatalf("last blockable iteration decreased with budget: %d after %d", l, prev)
		}
		prev = l
	}
	if prev < core.Sim().StartIter {
		t.Fatal("large budgets must block at least the first iteration")
	}
}
