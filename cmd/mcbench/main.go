// Command mcbench regenerates the reproduction experiments (E1–E14): for
// every theorem/lemma of the paper it runs the corresponding workload and
// prints the measured table plus fitted scaling exponents.
//
// Usage:
//
//	mcbench -list             enumerate experiments
//	mcbench                   run everything (about 3 minutes on a 2-vCPU VM)
//	mcbench -run E3,E9        run a subset
//	mcbench -quick            trimmed sweeps (about 16 seconds on a 2-vCPU VM)
//	mcbench -markdown         emit GitHub-flavoured markdown tables
//	mcbench -bench-sim BENCH_sim.json           measure the dense and event engines (full and quick baselines)
//	mcbench -bench-sim out.json -quick          engine-benchmark smoke run (CI)
//	mcbench -check BENCH_sim.json -quick        perf-regression gate against the committed quick baseline
//	mcbench -check BENCH_sim.json -tolerance 0.85   …with an explicit regression floor
//	mcbench -matrix                             engine matrix: algorithms × engines × densities
//	mcbench -matrix -matrix-out matrix.json     …and write the rows as JSON
//	mcbench -run E3 -cpuprofile cpu.pprof       profile a run (see docs/PERFORMANCE.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"multicast"
)

func main() {
	os.Exit(run())
}

// run is main's body behind an exit code, so the deferred profile
// writers (-cpuprofile/-memprofile) flush on every path — os.Exit in
// main would skip them.
func run() int {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		runIDs     = flag.String("run", "", "comma-separated experiment IDs (empty = all)")
		quick      = flag.Bool("quick", false, "trimmed parameter sweeps")
		trials     = flag.Int("trials", 0, "override trials per data point (0 = per-experiment default)")
		seed       = flag.Uint64("seed", 1, "base random seed")
		markdown   = flag.Bool("markdown", false, "emit markdown tables")
		csv        = flag.Bool("csv", false, "emit CSV tables (no claims/notes)")
		benchSim   = flag.String("bench-sim", "", "measure dense/event engine throughput and write the JSON report to this path (e.g. BENCH_sim.json), then exit")
		checkPath  = flag.String("check", "", "re-measure the frozen engine legs and fail if one regressed past -tolerance of this committed report, quick against quick (the CI perf gate), then exit")
		tolerance  = flag.Float64("tolerance", 0.85, "with -check: fraction of each committed ratio head must retain (>1 demands head be faster — used to smoke-test the gate)")
		matrix     = flag.Bool("matrix", false, "run the engine benchmark matrix (algorithms × engines × densities) and exit")
		matOut     = flag.String("matrix-out", "", "with -matrix: also write the rows as JSON to this path")
		engine     = flag.String("engine", "auto", "slot-loop engine for experiments: auto, dense, or event (results are identical; auto runs event, dense is the reference loop)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit (inspect with go tool pprof)")
	)
	flag.Parse()

	eng, err := multicast.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush unreached garbage so the profile shows live + cumulative allocs
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *benchSim != "" {
		if err := runEngineBench(*benchSim, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: engine benchmark failed: %v\n", err)
			return 1
		}
		return 0
	}
	if *checkPath != "" {
		if err := runEngineCheck(*checkPath, *quick, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *matrix {
		if err := runMatrix(*matOut, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: engine matrix failed: %v\n", err)
			return 1
		}
		return 0
	}

	all := multicast.Experiments()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}

	var selected []multicast.Experiment
	if *runIDs == "" {
		selected = all
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := multicast.ExperimentByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "mcbench: unknown experiment %q (use -list)\n", id)
				return 1
			}
			selected = append(selected, e)
		}
	}

	cfg := multicast.ExperimentConfig{Trials: *trials, Seed: *seed, Quick: *quick, Engine: eng}
	failed := 0
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		switch {
		case *csv:
			fmt.Printf("# %s — %s\n%s\n", res.ID, res.Title, res.CSV())
		case *markdown:
			fmt.Println(res.Markdown())
		default:
			fmt.Println(res.Render())
		}
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return 1
	}
	return 0
}
