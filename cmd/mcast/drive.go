package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"

	"multicast"
	"multicast/internal/driver"
)

// driveFlags carries the -drive* flag values into the drive paths.
type driveFlags struct {
	shards       int
	exec         bool
	resume       bool
	schedule     multicast.CampaignSchedule
	progressJSON string
	dir          string
	workers      int
	retries      int
	ckptEvery    int
	engine       multicast.Engine
	cacheDir     string
	crashAfter   int
	sumOut       string
	chaos        *multicast.ChaosInjector
	chaosLog     string
}

// campaignDir resolves the -campaign-dir default: next to the summary
// artifact when one is requested, a local directory otherwise.
func campaignDir(dir, sumOut string) string {
	if dir != "" {
		return dir
	}
	if sumOut != "" {
		return sumOut + ".campaign"
	}
	return "mcast-campaign"
}

// plan translates the flags into the public campaign plan, wiring in
// the given progress callback (see driveProgress), the chaos injector,
// and the legacy -crash-after testing aid.
func (f driveFlags) plan(trials int, progress func(multicast.CampaignEvent)) multicast.CampaignPlan {
	return multicast.CampaignPlan{
		Trials:          trials,
		Shards:          f.shards,
		Schedule:        f.schedule,
		Workers:         f.workers,
		Retries:         f.retries,
		Dir:             f.dir,
		Resume:          f.resume,
		CheckpointEvery: f.ckptEvery,
		Engine:          f.engine,
		CacheDir:        f.cacheDir,
		Progress:        progress,
		Chaos:           f.chaos,
	}
}

// cacheTally accumulates the per-cell cache annotations of a driven
// campaign's progress stream into the banner totals. Events are
// delivered serially, so plain counters suffice; a nil tally (no
// -cache-dir) counts and prints nothing.
type cacheTally struct {
	hits, misses int64
}

func (t *cacheTally) count(ev multicast.CampaignEvent) {
	if t == nil || ev.Kind != multicast.CampaignShardCell {
		return
	}
	switch ev.Cache {
	case multicast.CampaignCellCacheHit:
		t.hits++
	case multicast.CampaignCellCacheMiss:
		t.misses++
	}
}

func (t *cacheTally) report(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "cache: %d hit(s), %d miss(es) — %d cell(s) replayed instead of simulated\n",
		t.hits, t.misses, t.hits)
}

// driveProgress builds the campaign's progress callback: the human
// printer on stderr plus, with -progress-json, a JSON-lines encoder
// (one compact object per event — the driver delivers events serially,
// so no locking is needed here). It returns the callback, a close
// func for the JSON sink, the writer finishDrive must print the
// human report to (stderr when "-" hands stdout to the event stream,
// stdout otherwise), and — with -cache-dir — the hit/miss tally the
// banner reports.
func driveProgress(f driveFlags) (cb func(multicast.CampaignEvent), closeSink func() error, report io.Writer, tally *cacheTally, err error) {
	human := progressPrinter(f.crashAfter)
	if f.cacheDir != "" {
		tally = &cacheTally{}
	}
	base := func(ev multicast.CampaignEvent) {
		tally.count(ev)
		human(ev)
	}
	closeSink = func() error { return nil }
	report = os.Stdout
	if f.progressJSON == "" {
		return base, closeSink, report, tally, nil
	}
	sink := io.Writer(os.Stdout)
	if f.progressJSON == "-" {
		report = os.Stderr // stdout is now a pure JSON-lines stream
	} else {
		file, err := os.Create(f.progressJSON)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sink, closeSink = file, file.Close
	}
	enc := json.NewEncoder(sink)
	cb = func(ev multicast.CampaignEvent) {
		base(ev)
		if err := enc.Encode(ev); err != nil {
			fmt.Fprintf(os.Stderr, "mcast: -progress-json: %v\n", err)
		}
	}
	return cb, closeSink, report, tally, nil
}

// progressPrinter renders per-shard progress lines to stderr (stdout
// stays reserved for the diffable summaries). With crashAfter > 0 it
// kills the whole process after that many completed grid cells — the
// deterministic "power cord" the crash-resume CI smoke pulls.
func progressPrinter(crashAfter int) func(multicast.CampaignEvent) {
	var cells atomic.Int64
	return func(ev multicast.CampaignEvent) {
		switch ev.Kind {
		case multicast.CampaignShardStart:
			if ev.Done > 0 {
				fmt.Fprintf(os.Stderr, "shard %d: resuming at cell %d/%d (attempt %d)\n",
					ev.Shard, ev.Done, ev.Total, ev.Attempt)
			} else {
				fmt.Fprintf(os.Stderr, "shard %d: start (%d cells, attempt %d)\n",
					ev.Shard, ev.Total, ev.Attempt)
			}
		case multicast.CampaignShardCell:
			// Every cell is checkpointed; print only coarse progress.
			if step := max(1, ev.Total/4); ev.Done%step == 0 || ev.Done == ev.Total {
				fmt.Fprintf(os.Stderr, "shard %d: %d/%d cells\n", ev.Shard, ev.Done, ev.Total)
			}
			if crashAfter > 0 && cells.Add(1) >= int64(crashAfter) {
				fmt.Fprintf(os.Stderr, "mcast: -crash-after %d: killing the campaign\n", crashAfter)
				os.Exit(7)
			}
		case multicast.CampaignShardDone:
			fmt.Fprintf(os.Stderr, "shard %d: complete (%d cells)\n", ev.Shard, ev.Total)
		case multicast.CampaignShardRetry:
			fmt.Fprintf(os.Stderr, "shard %d: attempt %d failed (%v) — retrying from checkpoint\n",
				ev.Shard, ev.Attempt, ev.Err)
		case multicast.CampaignShardDiscard:
			fmt.Fprintf(os.Stderr, "shard %d: discarded damaged artifact (%v) — regenerating\n",
				ev.Shard, ev.Err)
		}
	}
}

// writeChaosLog reports the injected-fault count and persists the
// canonical event log. It runs even when the chaos run failed — usually
// it did, by design — because the log is exactly what a drill diffs
// against CI's to prove the schedule replayed identically.
func writeChaosLog(f driveFlags) error {
	if f.chaos == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "chaos: %d fault(s) injected\n", len(f.chaos.Events()))
	if f.chaosLog == "" {
		return nil
	}
	data, err := f.chaos.Log()
	if err != nil {
		return err
	}
	if err := os.WriteFile(f.chaosLog, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "chaos: event log written to %s\n", f.chaosLog)
	return nil
}

// finishDrive prints and optionally persists the merged campaign
// summary; w is stdout unless -progress-json - claimed it. A non-nil
// tally (-cache-dir campaigns) adds the cache hit/miss totals to the
// banner.
func finishDrive(sum *multicast.Summary, sumOut string, w io.Writer, tally *cacheTally) error {
	fmt.Fprintf(w, "driven campaign complete: %s\n", indent(sum.Identity()))
	tally.report(w)
	fmt.Fprintln(w)
	printCampaign(w, sum)
	if sumOut != "" {
		if err := sum.Write(sumOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "merged summary written to %s\n", sumOut)
	}
	return nil
}

// driveSingle supervises a single-workload campaign with k shard
// workers.
func driveSingle(ctx context.Context, cfg multicast.Config, trials int, f driveFlags) error {
	if f.exec {
		tmpl := singleSummary(cfg, trials, nil)
		return driveExecCampaign(ctx, tmpl, trials, f)
	}
	progress, closeSink, report, tally, err := driveProgress(f)
	if err != nil {
		return err
	}
	sum, err := multicast.RunCampaign(ctx, cfg, f.plan(trials, progress))
	if lerr := writeChaosLog(f); lerr != nil && err == nil {
		err = lerr
	}
	if cerr := closeSink(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return finishDrive(sum, f.sumOut, report, tally)
}

// driveScenario supervises a scenario-sweep campaign with k shard
// workers.
func driveScenario(ctx context.Context, name string, opts multicast.ScenarioOptions, trials int, f driveFlags) error {
	scen, err := lookupScenario(name)
	if err != nil {
		return err
	}
	if f.exec {
		points := multicast.ExpandScenario(scen, opts)
		if len(points) == 0 {
			return fmt.Errorf("scenario %s expanded to zero points", name)
		}
		tmpl := sweepSummary(scen, opts, points, trials, nil)
		return driveExecCampaign(ctx, tmpl, trials, f)
	}
	progress, closeSink, report, tally, err := driveProgress(f)
	if err != nil {
		return err
	}
	sum, err := multicast.RunScenarioCampaign(ctx, scen, opts, f.plan(trials, progress))
	if lerr := writeChaosLog(f); lerr != nil && err == nil {
		err = lerr
	}
	if cerr := closeSink(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return finishDrive(sum, f.sumOut, report, tally)
}

// driveExecCampaign drives the campaign with mcast subprocess workers:
// each shard re-executes this binary with the same workload flags plus
// its -shard slice and artifact path. A failed child restarts from
// scratch (its own checkpoint state is not shared), still under the
// driver's bounded retries, and the merged result is identical either
// way.
func driveExecCampaign(ctx context.Context, tmpl *multicast.Summary, trials int, f driveFlags) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	base := workerArgs()
	// Children size their own trial pools; an explicit positive -workers
	// from the operator stands (workerArgs already forwards it), but
	// otherwise — unset, or the "-workers=0 means GOMAXPROCS" default —
	// each child would grab every core and oversubscribe the box k-fold,
	// so divide the cores like the in-process driver does. Appending last
	// makes the division override a forwarded -workers=0.
	if w, ok := childWorkers(flagWasSet("workers"), f.workers, f.shards, runtime.GOMAXPROCS(0)); ok {
		base = append(base, fmt.Sprintf("-workers=%d", w))
	}
	progress, closeSink, report, tally, err := driveProgress(f)
	if err != nil {
		return err
	}
	sum, err := driver.Run(ctx, driver.Spec{Template: tmpl, Trials: trials}, driver.Options{
		Shards:   f.shards,
		Retries:  f.retries,
		Dir:      f.dir,
		Resume:   f.resume,
		Progress: progress,
		Spawn: func(ctx context.Context, shard, shards int, artifact string) *exec.Cmd {
			args := append(append([]string(nil), base...),
				fmt.Sprintf("-shard=%d/%d", shard, shards),
				fmt.Sprintf("-summary-out=%s", artifact))
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout = io.Discard // children print their own summaries
			cmd.Stderr = os.Stderr
			return cmd
		},
	})
	if cerr := closeSink(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return finishDrive(sum, f.sumOut, report, tally)
}

// workerArgs rebuilds the explicitly set command-line flags a shard
// worker child must inherit — the workload and run flags, minus the
// driver's own (the child is a plain `-shard i/k -summary-out …` run).
func workerArgs() []string {
	drop := map[string]bool{
		"drive": true, "drive-exec": true, "drive-schedule": true, "progress-json": true,
		"resume": true, "campaign-dir": true,
		"retries": true, "crash-after": true, "summary-out": true, "shard": true,
		"chaos-seed": true, "chaos-faults": true, "chaos-log": true,
		"timeout": true, // the parent enforces the deadline and kills children
	}
	var args []string
	flag.Visit(func(fl *flag.Flag) {
		if !drop[fl.Name] {
			args = append(args, fmt.Sprintf("-%s=%s", fl.Name, fl.Value.String()))
		}
	})
	return args
}

// childWorkers decides the -workers flag appended to a subprocess shard
// worker's command line: an explicit positive operator value stands
// (forwarded by workerArgs, nothing appended), while unset — or an
// explicit -workers=0, which a child would expand to full GOMAXPROCS,
// oversubscribing the box k-fold — becomes the cores divided evenly
// across the shards, at least 1 each.
func childWorkers(explicit bool, flagValue, shards, gomaxprocs int) (int, bool) {
	if explicit && flagValue > 0 {
		return 0, false
	}
	return max(1, gomaxprocs/max(shards, 1)), true
}

// flagWasSet reports whether the named flag was given explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}
