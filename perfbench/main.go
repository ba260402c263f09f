// Command perfbench is the campaign benchmark: it drives the registry
// scenario jammer-gauntlet through multicast.RunScenarioCampaign — the
// operator's driver.Run path — in one of three workloads, each sized so
// that a different layer bounds cells per second, and checks every
// merged summary it produces.
//
//	perfbench --workload sweep-long --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it repeats whole campaigns for the given seconds and
// reports the end-to-end metrics, each time scaled to a reference host
// speed by the calibration kernel in calib.go. With --trace 1 it
// composes the layers' public calls serially, times each call as a
// span, and reports the per-layer metrics. The last line of standard
// output is the result as one JSON object; the line before it records
// the environment. See README.md for the workloads and metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// digestsJSON records the sha256 of the merged summary for some
// (workload, seed) pairs; other seeds are checked against the serial
// composition instead.
//
//go:embed digests.json
var digestsJSON []byte

// workRoot, under the working directory, holds every run's campaign and
// cache directories — one filesystem for every run — and the span files.
const workRoot = ".bench_build/perfbench"

// units names every metric this benchmark reports and its unit.
var units = map[string]string{
	"cells_per_s": "1/s",
	"setup_s":     "s",
	"peak_rss_mb": "MiB",

	"scenario.setup_ms":         "ms",
	"sim.busy_s":                "s",
	"sim.slots":                 "count",
	"sim.ns_per_slot":           "ns",
	"sim.allocs_per_slot":       "1/slot",
	"sim.cell_ms_p50":           "ms",
	"sim.cell_ms_p95":           "ms",
	"cache.key_us":              "us",
	"cache.load_us_p50":         "us",
	"cache.load_us_p95":         "us",
	"cache.put_us_p50":          "us",
	"cache.put_us_p95":          "us",
	"cache.hits":                "count",
	"cache.misses":              "count",
	"cache.hit_ratio":           "ratio",
	"campaign.fold_us":          "us",
	"campaign.flushes":          "count",
	"campaign.flush_ms_p50":     "ms",
	"campaign.flush_ms_p95":     "ms",
	"campaign.flush_bytes_mean": "bytes",
	"campaign.flush_mb_total":   "MB",
	"campaign.flush_busy_s":     "s",
	"campaign.artifact_ms":      "ms",
	"campaign.artifact_bytes":   "bytes",
	"campaign.merge_ms":         "ms",
	"campaign.foldpath_ratio":   "ratio",
	"driver.dispatch_s":         "s",
	"trace.overhead_s":          "s",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output. Failed counts cells of
// failed campaigns plus merged summaries that miss their reference.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one measurement loop produced.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	notes             map[string]any
	spans             []span // the last traced composition's
}

// fail records a failure that costs n attempted cells.
func (o *outcome) fail(n int64, err error) {
	o.failed += n
	errs, _ := o.notes["errors"].([]string)
	o.notes["errors"] = append(errs, err.Error())
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: sweep-long, sweep-short or replay-warm")
	seed := flag.Uint64("seed", 1, "base seed of the scenario expansion")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	work := filepath.Join(workRoot, fmt.Sprintf("%s-seed%d-pid%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second

	// Set up three times, report the median, and keep the last.
	var clock hostClock
	var b *bench
	var setups, rawSetups, scens []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", i))
		var nb *bench
		var scen time.Duration
		raw, refSetup, err := clock.measure(func() (float64, error) {
			start := time.Now()
			var err error
			nb, scen, err = setUp(ctx, w, *seed, dir)
			return time.Since(start).Seconds(), err
		})
		if err != nil {
			return err
		}
		rawSetups = append(rawSetups, raw)
		setups = append(setups, refSetup)
		scens = append(scens, scen.Seconds())
		if b != nil {
			os.RemoveAll(b.work)
		}
		b = nb
	}
	ref := recorded[w.name][strconv.FormatUint(*seed, 10)]

	var o outcome
	if *trace == 1 {
		o = b.layers(ctx, budget, ref)
		o.values["scenario.setup_ms"] = median(scens) * 1e3
		path := filepath.Join(workRoot, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := writeSpans(path, o.spans); err != nil {
			return err
		}
		o.notes["spans"] = path
	} else {
		o = b.endToEnd(ctx, &clock, budget, ref)
		o.values["setup_s"] = median(setups)
		o.values["peak_rss_mb"] = peakRSS()
		o.notes["setup_s_measured"] = median(rawSetups)
		o.notes["calibrate_s"] = clock.calibs
	}

	res := result{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed,
		Metrics: map[string]metric{}}
	for k, v := range o.values {
		unit, ok := units[k]
		if !ok {
			panic("perfbench: metric without a unit: " + k)
		}
		res.Metrics[k] = metric{Value: v, Unit: unit}
	}
	o.notes["workload"] = w.name
	o.notes["seed"] = *seed
	o.notes["cells"] = b.cells()
	o.notes["failed_frac"] = float64(o.failed) / float64(res.Attempted)
	o.notes["env"] = environment(work)
	for _, v := range []any{map[string]any{"perfbench": o.notes}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// endToEnd repeats the workload's campaign, untraced, for the budget
// (at least five times) and reports cells per second over all of them:
// the cells folded divided by the campaigns' summed wall time, each
// campaign's scaled to the reference host. Every merged summary must
// match the reference digest.
func (b *bench) endToEnd(ctx context.Context, clock *hostClock, budget time.Duration, ref string) outcome {
	o := outcome{values: map[string]float64{}, notes: map[string]any{}}
	cells := int64(b.cells())
	var walls, steps []float64
	var refWalls float64
	var digests []string
	start := time.Now()
	for len(walls) < 5 || time.Since(start)+time.Duration(median(steps)*1e9) <= budget {
		s := time.Now()
		var d string
		wall, refWall, err := clock.measure(func() (w float64, err error) {
			d, w, err = b.timed(b.driven(ctx, workers))
			return w, err
		})
		o.attempted += cells
		if err != nil {
			o.fail(cells, err)
			break
		}
		walls = append(walls, wall)
		refWalls += refWall
		digests = append(digests, d)
		steps = append(steps, time.Since(s).Seconds())
	}
	folded := float64(cells) * float64(len(walls))
	o.values["cells_per_s"] = ratio(folded, refWalls)
	o.notes["cells_per_s_measured"] = ratio(folded, sum(walls))
	o.notes["campaign_s"] = walls
	if len(digests) == 0 {
		return o
	}
	if ref == "" {
		// No recorded digest for this seed: the serial composition of the
		// layers' public calls is the reference.
		d, _, err := b.timed(b.composed(nil))
		if err != nil {
			o.fail(1, fmt.Errorf("reference composition: %w", err))
			return o
		}
		ref = d
	}
	o.notes["digest"] = ref
	for i, d := range digests {
		if d != ref {
			o.fail(1, fmt.Errorf("campaign %d merged to sha256 %s, want %s", i, d, ref))
		}
	}
	return o
}

// layers repeats rounds of three serial runs of the campaign for the
// budget (at least one round): the composition untraced, the
// composition traced, and RunScenarioCampaign on one worker. Each
// per-layer metric is the median over rounds; the three merged summaries
// must be byte-identical, and match the recorded digest if there is one.
func (b *bench) layers(ctx context.Context, budget time.Duration, ref string) outcome {
	o := outcome{values: map[string]float64{}, notes: map[string]any{}}
	cells := int64(b.cells())
	rounds := map[string][]float64{}
	var walls []float64
	start := time.Now()
	for len(walls) < 1 || time.Since(start)+time.Duration(median(walls)*1e9) <= budget {
		r0 := time.Now()
		tr := newTracer()
		var ds [3]string
		var ws [3]float64
		var err error
		for i, run := range []campaignFunc{b.composed(nil), b.composed(tr), b.driven(ctx, 1)} {
			if ds[i], ws[i], err = b.timed(run); err != nil {
				break
			}
		}
		o.attempted += 3 * cells
		if err != nil {
			o.fail(3*cells, err)
			break
		}
		if ref == "" {
			ref = ds[2]
		}
		if ds[0] != ref || ds[1] != ref || ds[2] != ref {
			o.fail(1, fmt.Errorf("merged summaries: composition %s, traced %s, driver %s, want %s",
				ds[0], ds[1], ds[2], ref))
		}
		m := layerMetrics(tr.spans, b.cells())
		m["driver.dispatch_s"] = ws[2] - ws[0]
		m["trace.overhead_s"] = ws[1] - ws[0]
		for k, v := range m {
			rounds[k] = append(rounds[k], v)
		}
		o.spans = tr.spans
		walls = append(walls, time.Since(r0).Seconds())
	}
	for k, vs := range rounds {
		o.values[k] = median(vs)
	}
	o.notes["rounds"] = len(walls)
	o.notes["digest"] = ref
	return o
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// peakRSS is the process's peak resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment records what the figures depend on. Checkpoint flushes
// and cache writes are filesystem-bound, so the campaign and cache
// directories, both under work, are named with their filesystem type.
func environment(work string) map[string]any {
	fs := fsType(work)
	return map[string]any{
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"commit":      commit(),
		"campaign_fs": fs,
		"cache_fs":    fs,
		"work_dir":    work,
	}
}

// fsType returns the type of the filesystem mounted deepest above path.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		under := abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")
		if under && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// commit reads the checked-out commit from .git in the working
// directory, or reports "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown (" + ref + ")"
	}
	return strings.TrimSpace(string(id))
}
