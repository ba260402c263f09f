package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"multicast"
)

// driveFlags carries the -drive* flag values into the drive paths.
type driveFlags struct {
	shards       int
	resume       bool
	progressJSON string
	dir          string
	workers      int
	retries      int
	ckptEvery    int
	engine       multicast.Engine
	cacheDir     string
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
// the given progress callback (see driveProgress) and the chaos
// injector.
func (f driveFlags) plan(trials int, progress func(multicast.CampaignEvent)) multicast.CampaignPlan {
	return multicast.CampaignPlan{
		Trials:          trials,
		Shards:          f.shards,
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
	if f.cacheDir != "" {
		tally = &cacheTally{}
	}
	base := func(ev multicast.CampaignEvent) {
		tally.count(ev)
		progressPrinter(ev)
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
// stays reserved for the diffable summaries).
func progressPrinter(ev multicast.CampaignEvent) {
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

// driveSingle supervises a single-workload campaign of k shards.
func driveSingle(ctx context.Context, cfg multicast.Config, trials int, f driveFlags) error {
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

// driveScenario supervises a scenario-sweep campaign of k shards.
func driveScenario(ctx context.Context, name string, opts multicast.ScenarioOptions, trials int, f driveFlags) error {
	scen, err := lookupScenario(name)
	if err != nil {
		return err
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
