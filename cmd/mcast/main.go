// Command mcast runs one broadcast execution and prints a run report —
// or a whole statistical campaign, optionally sharded across machines.
//
// Usage:
//
//	mcast -alg multicast -n 256 -adv burst -budget 100000 -seed 1
//	mcast -alg multicastadv -n 64 -trials 5
//	mcast -alg multicast-c -n 256 -channels 8 -adv fraction -frac 0.9 -budget 50000 -trace
//
// Sharded campaigns: shard i of k runs the trials t ≡ i (mod k) of the
// same seeded batch, writes its mergeable summary, and any machine
// merges the artifacts into exactly the summary the unsharded run
// produces (seeds derive from the trial index alone):
//
//	mcast -alg multicast -n 256 -trials 100000 -shard 0/3 -summary-out s0.json   # machine 0
//	mcast -alg multicast -n 256 -trials 100000 -shard 1/3 -summary-out s1.json   # machine 1
//	mcast -alg multicast -n 256 -trials 100000 -shard 2/3 -summary-out s2.json   # machine 2
//	mcast -merge s0.json s1.json s2.json
//
// Scenario sweeps run a whole registry workload (several points ×
// -trials each) as one campaign; -shard then slices the flattened
// (point × trial) grid, and -merge recombines per point:
//
//	mcast -list-scenarios
//	mcast -scenario channel-ladder -trials 100
//	mcast -scenario duel -n 64 -trials 50000 -shard 0/2 -summary-out d0.json
//	mcast -scenario duel -n 64 -trials 50000 -shard 1/2 -summary-out d1.json
//	mcast -merge d0.json d1.json
//
// Driven campaigns supervise the whole campaign in one command:
// -drive k splits the grid into k shards computed by one in-process
// worker pool, checkpoints each shard at grid-cell granularity into
// -campaign-dir, retries failed attempts from the checkpoints, and
// merges the artifacts automatically. A killed campaign resumes where
// it stopped:
//
//	mcast -scenario duel -n 64 -trials 50000 -drive 3 -campaign-dir camp -summary-out duel.json
//	# …killed mid-run? finish it:
//	mcast -scenario duel -n 64 -trials 50000 -drive 3 -campaign-dir camp -resume -summary-out duel.json
//
// -progress-json streams every progress event as one JSON object per
// line for orchestrators to parse ("-" puts the stream on stdout and
// moves the human report to stderr):
//
//	mcast -scenario duel -trials 50000 -drive 3 \
//	  -campaign-dir camp -progress-json - > progress.jsonl
//
// Chaos drills inject seeded, reproducible faults into a driven
// campaign and leave a diffable fault log; resuming without the chaos
// flags recovers the campaign bit-identically:
//
//	mcast -scenario duel -trials 50 -drive 3 -campaign-dir camp \
//	  -chaos-seed 7 -chaos-faults crash@1:2 -chaos-log faults.jsonl
//	mcast -scenario duel -trials 50 -drive 3 -campaign-dir camp -resume
//
// See docs/OPERATIONS.md for the cross-machine campaign playbook and
// the chaos drill procedure.
//
// Adversaries: none, burst, fraction, random, sweep, pulse, bursty,
// targeted (phase-targeted, for MultiCastAdv), and the adaptive pair
// reactive and camper (the §8 extension).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"multicast"
	"multicast/internal/campaign"
	"multicast/internal/runner"
	"multicast/internal/stats"
)

func main() {
	var (
		algName     = flag.String("alg", "multicast", "algorithm: multicastcore|multicast|multicast-c|multicastadv|multicastadv-c|singlechannel")
		n           = flag.Int("n", 256, "number of nodes (power of two)")
		channels    = flag.Int("channels", 0, "physical channels for the (C) variants")
		advName     = flag.String("adv", "none", "adversary: none|burst|fraction|random|sweep|pulse|bursty|targeted|reactive|camper")
		budget      = flag.Int64("budget", 0, "Eve's energy budget T")
		frac        = flag.Float64("frac", 0.9, "jam fraction for fraction/random/pulse/targeted")
		start       = flag.Int64("start", 0, "first jamming slot for burst")
		width       = flag.Int("width", 8, "window width for sweep")
		period      = flag.Int64("period", 128, "pulse period")
		duty        = flag.Int64("duty", 64, "pulse duty slots")
		stop        = flag.Int64("stop", 0, "stop all jamming at this slot (0 = never)")
		targetJ     = flag.Int("target-j", -1, "phase number targeted by the targeted jammer (default lg n − 1)")
		seed        = flag.Uint64("seed", 1, "base random seed")
		trials      = flag.Int("trials", 1, "independent trials (parallel)")
		maxSlots    = flag.Int64("max-slots", 0, "abort after this many slots (0 = default)")
		trace       = flag.Bool("trace", false, "print a per-1000-slot trace of the first trial")
		curve       = flag.Bool("curve", false, "print sparkline charts of the run (informed/halted/jammed/traffic)")
		alpha       = flag.Float64("alpha", 0, "override MultiCastAdv α (0 = preset)")
		engName     = flag.String("engine", "auto", "slot-loop engine: auto|dense|event (identical results; auto runs event, dense is the reference loop)")
		shardStr    = flag.String("shard", "", "run shard i/k of the trial batch or sweep grid (e.g. 0/3); implies summary output")
		sumOut      = flag.String("summary-out", "", "write the mergeable summary JSON to this path")
		merge       = flag.Bool("merge", false, "merge the shard summary files given as arguments and print the combined summary")
		workers     = flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS; with -drive, workers per shard, 0 dividing GOMAXPROCS across the shards); does not affect results")
		scenName    = flag.String("scenario", "", "run a registry scenario sweep (-trials per point; overrides -alg/-adv; see -list-scenarios)")
		listScen    = flag.Bool("list-scenarios", false, "list the scenario registry and exit")
		quick       = flag.Bool("quick", false, "with -scenario: expand the trimmed (smoke-test) point list")
		timeout     = flag.Duration("timeout", 0, "abort the whole run after this long (e.g. 30m; interrupts in-flight executions cleanly)")
		drive       = flag.Int("drive", 0, "drive the campaign as this many checkpointed shards on one in-process worker pool (see -campaign-dir)")
		progJSON    = flag.String("progress-json", "", "with -drive: also stream progress events as JSON lines to this path (\"-\" = stdout; the human report then moves to stderr)")
		resume      = flag.Bool("resume", false, "with -drive: resume an interrupted campaign from -campaign-dir")
		campDir     = flag.String("campaign-dir", "", "with -drive: directory for shard artifacts and checkpoints (default: <summary-out>.campaign or mcast-campaign)")
		retries     = flag.Int("retries", 1, "with -drive: relaunches of the worker pool, from the checkpoints, before the campaign fails")
		ckptEvery   = flag.Int("checkpoint-every", 1, "with -drive: grid cells between checkpoint flushes (1 = maximum crash safety; raise it to cut checkpoint I/O on huge campaigns)")
		cacheDir    = flag.String("cache-dir", "", "with -drive: content-addressed cell result cache directory (created if needed) — cells whose results are already cached replay instead of simulating, byte-identically; discard the directory when the summary schema version changes")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "with -chaos-faults: seed resolving every choice a fault rule leaves open (shard, cell, cut offset, flipped bit)")
		chaosFaults = flag.String("chaos-faults", "", "with -drive: inject seeded faults — comma-separated kind[@shard[:cell[:attempt]]] rules, * = seeded choice (kinds: crash|torn-flush|corrupt-checkpoint|truncate-artifact|bit-flip-artifact|duplicate-shard|stall)")
		chaosLog    = flag.String("chaos-log", "", "with -chaos-faults: write the canonical chaos event log (JSON lines) to this path")
	)
	flag.Parse()
	// Overrides like -n only reach a scenario when given explicitly —
	// flag defaults must not clobber per-scenario defaults.
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	if *listScen {
		listScenarios()
		return
	}

	// The driver flags only mean something together.
	if *drive < 0 {
		fatal(fmt.Errorf("-drive %d: shard worker count must be positive", *drive))
	}
	if *drive == 0 {
		for _, name := range []string{"progress-json", "resume",
			"campaign-dir", "retries", "checkpoint-every", "cache-dir",
			"chaos-seed", "chaos-faults", "chaos-log"} {
			if setFlags[name] {
				fatal(fmt.Errorf("-%s requires -drive", name))
			}
		}
	} else {
		if *shardStr != "" {
			fatal(fmt.Errorf("-shard cannot combine with -drive (the driver owns the shard layout)"))
		}
		if *merge {
			fatal(fmt.Errorf("-merge cannot combine with -drive (a driven campaign merges automatically)"))
		}
		if *chaosFaults == "" && (setFlags["chaos-seed"] || setFlags["chaos-log"]) {
			fatal(fmt.Errorf("-chaos-seed and -chaos-log require -chaos-faults (the fault schedule)"))
		}
	}
	var chaosInj *multicast.ChaosInjector
	if *chaosFaults != "" {
		rules, err := multicast.ParseChaosRules(*chaosFaults)
		fatal(err)
		chaosInj, err = multicast.NewChaosInjector(multicast.ChaosPlan{Seed: *chaosSeed, Faults: rules})
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// A deadline abort should read as a timeout, not a bare context error.
	deadline := func(err error) error {
		if err != nil && errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("run timed out after %v (in-flight executions were interrupted)", *timeout)
		}
		return err
	}

	if *merge {
		args := flag.Args()
		if len(args) == 0 {
			fatal(fmt.Errorf("-merge needs at least one summary file argument"))
		}
		fatal(mergeCmd(args, *sumOut))
		return
	}

	if *scenName != "" {
		// The scenario defines the workloads; a workload flag that would
		// be silently dropped is refused instead.
		scenFlags := map[string]bool{
			"scenario": true, "quick": true, "n": true, "budget": true, "seed": true,
			"trials": true, "engine": true, "workers": true,
			"shard": true, "summary-out": true,
			"timeout": true, "drive": true,
			"progress-json": true, "resume": true,
			"campaign-dir": true, "retries": true, "checkpoint-every": true, "cache-dir": true,
			"chaos-seed": true, "chaos-faults": true, "chaos-log": true,
		}
		for name := range setFlags {
			if !scenFlags[name] {
				fatal(fmt.Errorf("-%s has no effect with -scenario (the scenario defines the workload)", name))
			}
		}
		engine, err := multicast.ParseEngine(*engName)
		fatal(err)
		shard, err := parseShard(*shardStr)
		fatal(err)
		opts := multicast.ScenarioOptions{Seed: *seed, Quick: *quick}
		if setFlags["n"] {
			opts.N = *n
		}
		if setFlags["budget"] {
			opts.Budget = *budget
		}
		if *drive > 0 {
			fatal(deadline(driveScenario(ctx, *scenName, opts, *trials, driveFlags{
				shards: *drive, resume: *resume, progressJSON: *progJSON,
				dir: campaignDir(*campDir, *sumOut), workers: *workers,
				retries: *retries, ckptEvery: *ckptEvery, engine: engine,
				cacheDir: *cacheDir, sumOut: *sumOut,
				chaos: chaosInj, chaosLog: *chaosLog,
			})))
			return
		}
		fatal(deadline(runScenario(ctx, *scenName, opts, engine, *trials, shard, *workers, *sumOut)))
		return
	}

	alg, err := multicast.ParseAlgorithm(*algName)
	fatal(err)

	engine, err := multicast.ParseEngine(*engName)
	fatal(err)

	params := multicast.SimParams()
	if *alpha > 0 {
		params.Alpha = *alpha
	}

	tj := *targetJ
	if tj < 0 {
		tj = lg(*n) - 1
	}
	var adv multicast.Adversary
	switch *advName {
	case "none":
		adv = multicast.NoJammer()
	case "burst":
		adv = multicast.FullBurstJammer(*start)
	case "fraction":
		adv = multicast.FractionJammer(*frac)
	case "random":
		adv = multicast.RandomFractionJammer(*frac)
	case "sweep":
		adv = multicast.SweepJammer(*width)
	case "pulse":
		adv = multicast.PulseJammer(*period, *duty, *frac, *stop)
	case "bursty":
		adv = multicast.BurstyJammer(*frac, float64(*duty), float64(*duty))
	case "targeted":
		adv = multicast.PhaseTargetedJammer(params, *channels, tj, *frac)
	case "reactive":
		adv = multicast.ReactiveJammer(*frac)
	case "camper":
		adv = multicast.CamperJammer(*duty, *width*8)
	default:
		fatal(fmt.Errorf("unknown adversary %q", *advName))
	}
	if *stop > 0 && *advName != "pulse" {
		adv = multicast.StopJammingAfter(adv, *stop)
	}

	cfg := multicast.Config{
		N:         *n,
		Algorithm: alg,
		Params:    params,
		Channels:  *channels,
		Adversary: adv,
		Budget:    *budget,
		Seed:      *seed,
		MaxSlots:  *maxSlots,
		Engine:    engine,
	}

	if *trace {
		cfg.Observer = &tracer{every: 1000}
	}
	var rec *multicast.TraceRecorder
	if *curve {
		rec = multicast.NewTraceRecorder(16)
		cfg.Observer = rec
	}

	shard, err := parseShard(*shardStr)
	fatal(err)

	// With -progress-json -, stdout is a pure JSON-lines stream; the
	// human banner joins the report on stderr.
	banner := io.Writer(os.Stdout)
	if *progJSON == "-" {
		banner = os.Stderr
	}
	fmt.Fprintf(banner, "algorithm=%s n=%d channels=%d adversary=%s budget=%d seed=%d trials=%d\n\n",
		alg, *n, *channels, adv.Name(), *budget, *seed, *trials)

	if *drive > 0 {
		cfg.Observer = nil
		fatal(deadline(driveSingle(ctx, cfg, *trials, driveFlags{
			shards: *drive, resume: *resume, progressJSON: *progJSON,
			dir: campaignDir(*campDir, *sumOut), workers: *workers,
			retries: *retries, ckptEvery: *ckptEvery, engine: engine,
			cacheDir: *cacheDir, sumOut: *sumOut,
			chaos: chaosInj, chaosLog: *chaosLog,
		})))
		return
	}

	if *shardStr != "" || *sumOut != "" {
		// Campaign mode: stream trials into a mergeable collector, print
		// the summary, and (optionally) write the shard artifact.
		cfg.Observer = nil
		col := runner.NewCollector()
		err := multicast.RunTrialsContext(ctx, cfg,
			multicast.TrialPlan{Trials: *trials, Shard: shard, Workers: *workers},
			func(t int, m multicast.Metrics) error { return col.Add(t, m) })
		fatal(deadline(err))
		if shard.Count > 1 {
			fmt.Printf("shard %d/%d: %d of %d trials\n\n", shard.Index, shard.Count, col.Trials(), *trials)
		}
		printSummaries(os.Stdout, col)
		if *sumOut != "" {
			sum := singleSummary(cfg, *trials, col)
			sum.ShardIndex, sum.ShardCount = shard.Index, max(shard.Count, 1)
			fatal(sum.Write(*sumOut))
			fmt.Printf("summary written to %s\n", *sumOut)
		}
		return
	}

	if *trials == 1 {
		err := multicast.RunTrialsContext(ctx, cfg, multicast.TrialPlan{Trials: 1},
			func(_ int, m multicast.Metrics) error {
				report(m)
				return nil
			})
		fatal(deadline(err))
		if rec != nil {
			fmt.Print(multicast.TraceChart(72, rec.Informed, rec.Halted, rec.Jammed, rec.Traffic))
		}
		return
	}
	cfg.Observer = nil
	// Trials stream out in seed order; nothing is buffered.
	err = multicast.RunTrialsContext(ctx, cfg,
		multicast.TrialPlan{Trials: *trials, Workers: *workers},
		func(t int, m multicast.Metrics) error {
			fmt.Printf("--- trial %d (seed %d) ---\n", t, *seed+uint64(t))
			report(m)
			return nil
		})
	fatal(deadline(err))
}

// singleSummary builds the artifact skeleton of a single-workload
// campaign around its collector. The skeleton comes from the same
// constructor RunCampaign uses, so CLI and library artifacts of one
// campaign always merge.
func singleSummary(cfg multicast.Config, trials int, col *runner.Collector) *multicast.Summary {
	s := multicast.NewSummary(cfg, trials)
	s.Points[0].Collector = col
	return s
}

// mergeCmd combines shard artifacts (single-workload or sweep — one
// schema) into the full campaign summary and prints it.
func mergeCmd(paths []string, out string) error {
	merged, err := campaign.MergeFiles(paths)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d shard file(s): %s\n\n", len(paths), indent(merged.Identity()))
	printCampaign(os.Stdout, merged)
	if out != "" {
		if err := merged.Write(out); err != nil {
			return err
		}
		fmt.Printf("merged summary written to %s\n", out)
	}
	return nil
}

// printCampaign renders a campaign summary: one block for a
// single-workload campaign, one block per point for a sweep. The
// writer is stdout except when -progress-json claims stdout for the
// event stream.
func printCampaign(w io.Writer, s *multicast.Summary) {
	if s.Single() {
		printSummaries(w, s.Points[0].Collector)
		return
	}
	for _, p := range s.Points {
		fmt.Fprintf(w, "-- point %s (%s)\n", p.Label, p.Workload)
		printSummaries(w, p.Collector)
		fmt.Fprintln(w)
	}
}

// printSummaries renders every headline metric at full float precision
// (%v round-trips float64 exactly), so byte-equal output means
// bit-identical summaries — the shard→merge CI smokes diff this text.
func printSummaries(w io.Writer, col *runner.Collector) {
	line := func(name string, s stats.Summary) {
		fmt.Fprintf(w, "%-18s n=%d mean=%v std=%v min=%v p25=%v med=%v p75=%v p95=%v max=%v\n",
			name, s.Count, s.Mean, s.Std, s.Min, s.P25, s.Median, s.P75, s.P95, s.Max)
	}
	line("slots", col.Slots())
	line("max node energy", col.MaxEnergy())
	line("source energy", col.SourceEnergy())
	line("mean node energy", col.MeanEnergy())
	line("eve energy", col.EveEnergy())
	line("all informed", col.AllInformed())
	if inv := col.Invariants(); inv.Any() {
		fmt.Fprintf(w, "!! invariant violations: %+v\n", inv)
	} else {
		fmt.Fprintf(w, "safety invariants:  all hold (%d trials)\n", col.Trials())
	}
}

// parseShard resolves "i/k" (empty = unsharded). The whole string must
// parse: trailing garbage would silently run the wrong shard slice.
func parseShard(s string) (multicast.Shard, error) {
	if s == "" {
		return multicast.Shard{}, nil
	}
	var sh multicast.Shard
	is, ks, ok := strings.Cut(s, "/")
	malformed := fmt.Errorf("malformed -shard %q (want i/k, e.g. 0/3)", s)
	if !ok {
		return sh, malformed
	}
	var err error
	if sh.Index, err = strconv.Atoi(is); err != nil {
		return sh, malformed
	}
	if sh.Count, err = strconv.Atoi(ks); err != nil {
		return sh, malformed
	}
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return sh, fmt.Errorf("shard %d/%d out of range", sh.Index, sh.Count)
	}
	return sh, nil
}

func report(m multicast.Metrics) {
	fmt.Printf("slots until all halted:   %d\n", m.Slots)
	fmt.Printf("all informed by slot:     %d\n", m.AllInformedSlot)
	if m.FirstHelperSlot >= 0 {
		fmt.Printf("first helper at slot:     %d\n", m.FirstHelperSlot)
	}
	fmt.Printf("first halt at slot:       %d\n", m.FirstHaltSlot)
	fmt.Printf("max node energy:          %d\n", m.MaxNodeEnergy)
	fmt.Printf("mean node energy:         %.1f\n", m.MeanNodeEnergy)
	fmt.Printf("source energy:            %d\n", m.SourceEnergy)
	fmt.Printf("Eve spent:                %d\n", m.EveEnergy)
	if m.EveEnergy > 0 {
		fmt.Printf("competitive ratio:        %.4f (max node cost / Eve cost)\n",
			float64(m.MaxNodeEnergy)/float64(m.EveEnergy))
	}
	if m.Invariants.Any() {
		fmt.Printf("!! invariant violations:  %+v\n", m.Invariants)
	} else {
		fmt.Printf("safety invariants:        all hold\n")
	}
	fmt.Println()
}

// tracer prints a status line every `every` slots.
type tracer struct {
	every int64
}

func (t *tracer) Slot(slot int64, channels, jammed, listeners, broadcasters, informed, halted int) {
	if slot%t.every != 0 {
		return
	}
	fmt.Printf("slot %-10d channels=%-6d jammed=%-6d listen=%-4d bcast=%-4d informed=%-5d halted=%d\n",
		slot, channels, jammed, listeners, broadcasters, informed, halted)
}

func lg(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func indent(s string) string { return strings.ReplaceAll(s, "\n", "\n  ") }

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcast:", err)
		os.Exit(1)
	}
}
