package main

import (
	"runtime/metrics"
	"slices"
	"time"
)

// span is one timed call into a layer. Cell is the grid cell the call
// served — the identifier every span of one cell shares — or -1 for the
// campaign-wide artifact write and merge. N is the call's count: slots
// for sim.run_cell, 1 for a cache hit, bytes on disk for a flush or the
// artifact.
type span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer keeps the spans of one traced composition in memory. A nil
// tracer records nothing, so the same composition runs untraced.
type tracer struct {
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// span records a call that started at start and ends now. The returned
// pointer, valid until the next span, lets the caller attach counts
// measured after the clock stopped.
func (t *tracer) span(name string, cell int, start int64) *span {
	if t == nil {
		return nil
	}
	t.spans = append(t.spans, span{Name: name, Cell: cell, Start: start, End: t.now()})
	return &t.spans[len(t.spans)-1]
}

// allocs is the process's cumulative heap allocation count.
func (t *tracer) allocs() uint64 {
	if t == nil {
		return 0
	}
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// layerMetrics derives the per-layer metrics of one traced composition
// from its spans. cells is the grid size.
func layerMetrics(spans []span, cells int) map[string]float64 {
	by := map[string][]span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	dur := func(name string) []float64 {
		var out []float64
		for _, s := range by[name] {
			out = append(out, float64(s.End-s.Start))
		}
		return out
	}
	sumN := func(name string) (n int64) {
		for _, s := range by[name] {
			n += s.N
		}
		return n
	}
	m := map[string]float64{}

	run := dur("sim.run_cell")
	busy := sum(run)
	slots := sumN("sim.run_cell")
	var allocs uint64
	for _, s := range by["sim.run_cell"] {
		allocs += s.Allocs
	}
	m["sim.busy_s"] = busy / 1e9
	m["sim.slots"] = float64(slots)
	m["sim.ns_per_slot"] = ratio(busy, float64(slots))
	m["sim.allocs_per_slot"] = ratio(float64(allocs), float64(slots))
	m["sim.cell_ms_p50"] = quantile(run, 0.50) / 1e6
	m["sim.cell_ms_p95"] = quantile(run, 0.95) / 1e6

	loads := dur("cache.load")
	hits := sumN("cache.load")
	m["cache.key_us"] = mean(dur("cache.key")) / 1e3
	m["cache.load_us_p50"] = quantile(loads, 0.50) / 1e3
	m["cache.load_us_p95"] = quantile(loads, 0.95) / 1e3
	m["cache.put_us_p50"] = quantile(dur("cache.put"), 0.50) / 1e3
	m["cache.put_us_p95"] = quantile(dur("cache.put"), 0.95) / 1e3
	m["cache.hits"] = float64(hits)
	m["cache.misses"] = float64(int64(len(loads)) - hits)
	m["cache.hit_ratio"] = ratio(float64(hits), float64(len(loads)))

	adds := dur("campaign.add")
	flushes := dur("campaign.flush")
	flushBytes := sumN("campaign.flush")
	m["campaign.fold_us"] = mean(adds) / 1e3
	m["campaign.flushes"] = float64(len(flushes))
	m["campaign.flush_ms_p50"] = quantile(flushes, 0.50) / 1e6
	m["campaign.flush_ms_p95"] = quantile(flushes, 0.95) / 1e6
	m["campaign.flush_bytes_mean"] = ratio(float64(flushBytes), float64(len(flushes)))
	m["campaign.flush_mb_total"] = float64(flushBytes) / 1e6
	m["campaign.flush_busy_s"] = sum(flushes) / 1e9
	m["campaign.artifact_ms"] = sum(dur("campaign.artifact")) / 1e6
	m["campaign.artifact_bytes"] = float64(sumN("campaign.artifact"))
	m["campaign.merge_ms"] = sum(dur("campaign.merge")) / 1e6
	// The fold goroutine pays Add and Flush for every cell while the
	// engine's per-cell time is split over the pool's workers; above 1,
	// the fold path bounds cells/s. Zero when no cell was simulated.
	foldPerCell := (sum(adds) + sum(flushes)) / float64(cells)
	m["campaign.foldpath_ratio"] = ratio(foldPerCell, busy/float64(cells)/workers)
	return m
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of xs, 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
