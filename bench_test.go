package multicast_test

// One benchmark per reproduction experiment (E1–E14; `mcbench -list`
// names them): each
// runs the experiment's workload in quick mode and reports the headline
// metric the paper's claim is about via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates (a trimmed version of) every table. The full tables are
// produced by `go run ./cmd/mcbench`. The Ablation* benchmarks probe two
// design choices of the implementation (the n/2 channel rule and the α
// trade-off of MultiCastAdv).

import (
	"strconv"
	"testing"

	"multicast"
)

// benchExperiment runs one experiment per benchmark iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := multicast.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := e.Run(multicast.ExperimentConfig{Quick: true, Trials: 1, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		rows = len(res.Rows)
		if i == 0 {
			b.Log("\n" + res.Render())
		}
	}
	b.ReportMetric(float64(rows), "table-rows")
}

func BenchmarkE1EpidemicIteration(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2CoreSweepT(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3MultiCastSweepT(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4VsSingleChannel(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5AdvSweepT(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6LimitedChannels(b *testing.B)    { benchExperiment(b, "E6") }
func BenchmarkE7AdvLimitedChannels(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8FastShutdown(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Competitiveness(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10SweepN(b *testing.B)            { benchExperiment(b, "E10") }
func BenchmarkE11SafetyInvariants(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12LowerBoundGap(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13AdaptiveEve(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14GoodPhase(b *testing.B)         { benchExperiment(b, "E14") }

// BenchmarkEngineSlotsPerSecond measures raw simulator throughput:
// node-slots processed per second for a mid-size MultiCast run.
func BenchmarkEngineSlotsPerSecond(b *testing.B) {
	const n = 256
	var nodeSlots int64
	for i := 0; i < b.N; i++ {
		m, err := multicast.Run(multicast.Config{
			N:         n,
			Algorithm: multicast.AlgoMultiCast,
			Adversary: multicast.FullBurstJammer(0),
			Budget:    50_000,
			Seed:      uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodeSlots += m.Slots * n
	}
	b.ReportMetric(float64(nodeSlots)/b.Elapsed().Seconds(), "node-slots/s")
}

// BenchmarkAblationChannelCount probes the paper's §4 design argument for
// using n/2 channels (c = n/ChannelDiv). Two jammer models separate the
// effects: against a *fraction* jammer (strategy scales with the
// spectrum), more channels drain Eve's budget faster; against a
// *fixed-power* jammer (constant channels per slot), more channels dilute
// her coverage but also dilute honest rendezvous. The paper's n/2 is the
// Θ(n) sweet spot where one expected peer shares each channel.
func BenchmarkAblationChannelCount(b *testing.B) {
	const n = 256
	jammers := map[string]multicast.Adversary{
		"fraction50": multicast.FractionJammer(0.5),
		"fixed64":    multicast.SweepJammer(64),
	}
	for jn, jam := range jammers {
		for _, div := range []int{1, 2, 4, 8} {
			b.Run(jn+"/n_div_"+strconv.Itoa(div), func(b *testing.B) {
				params := multicast.SimParams()
				params.ChannelDiv = div
				var slots, cost float64
				for i := 0; i < b.N; i++ {
					m, err := multicast.Run(multicast.Config{
						N:         n,
						Algorithm: multicast.AlgoMultiCast,
						Params:    params,
						Adversary: jam,
						Budget:    100_000,
						Seed:      uint64(i) + 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					slots += float64(m.Slots)
					cost += float64(m.MaxNodeEnergy)
				}
				b.ReportMetric(slots/float64(b.N), "slots/run")
				b.ReportMetric(cost/float64(b.N), "max-energy/run")
			})
		}
	}
}

// BenchmarkAblationAlpha probes MultiCastAdv's α trade-off (§1: "ideally α
// should be as small as possible, but the constant hiding behind the
// big-O notation increases as α approaches zero"). Jam-free runs expose
// the τ = Õ(n^2α) term directly.
func BenchmarkAblationAlpha(b *testing.B) {
	const n = 32
	for _, alpha := range []float64{0.15, 0.20, 0.24} {
		b.Run("alpha_"+strconv.FormatFloat(alpha, 'f', 2, 64), func(b *testing.B) {
			params := multicast.SimParams()
			params.Alpha = alpha
			var slots, cost float64
			for i := 0; i < b.N; i++ {
				m, err := multicast.Run(multicast.Config{
					N:         n,
					Algorithm: multicast.AlgoMultiCastAdv,
					Params:    params,
					Seed:      uint64(i) + 1,
					MaxSlots:  1 << 27,
				})
				if err != nil {
					b.Fatal(err)
				}
				slots += float64(m.Slots)
				cost += float64(m.MaxNodeEnergy)
			}
			b.ReportMetric(slots/float64(b.N), "slots/run")
			b.ReportMetric(cost/float64(b.N), "max-energy/run")
		})
	}
}

// BenchmarkAblationSparseEpidemic contrasts the dense epidemic broadcast
// of MultiCastCore (constant p, cost Θ(T/n)) with MultiCast's sparse one
// (decaying pᵢ, cost Θ(√(T/n))) at the same budget — the design change §5
// introduces to improve competitiveness.
func BenchmarkAblationSparseEpidemic(b *testing.B) {
	const n, budget = 256, 200_000
	for _, kind := range []multicast.AlgorithmKind{multicast.AlgoMultiCastCore, multicast.AlgoMultiCast} {
		b.Run(string(kind), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				m, err := multicast.Run(multicast.Config{
					N:         n,
					Algorithm: kind,
					Adversary: multicast.FullBurstJammer(0),
					Budget:    budget,
					Seed:      uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				cost += float64(m.MaxNodeEnergy)
			}
			b.ReportMetric(cost/float64(b.N), "max-energy/run")
		})
	}
}
