package driver

import (
	"multicast/internal/cache"
	"multicast/internal/campaign"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

// cellCache adapts a cache.Store to the runner grid's lookup/store
// seam for one campaign: the content address of every global cell is
// precomputed from the template points' identities (label + workload
// string) and the grid's per-cell seed, and each Load records whether
// it hit so the fold paths can annotate the cell's progress event.
//
// The hit slice is written by the computing worker and read only after
// the cell's result has crossed a channel into the (single) delivery
// or fold goroutine, so the per-index handoff is ordered; distinct
// cells never share an index.
type cellCache struct {
	store *cache.Store
	keys  []string
	hit   []bool
}

// newCellCache derives the per-cell keys of the campaign's grid,
// quoting each point's identity once.
func newCellCache(store *cache.Store, tmpl *campaign.Summary, grid runner.Grid) *cellCache {
	total := grid.Total()
	c := &cellCache{store: store, keys: make([]string, total), hit: make([]bool, total)}
	keys := make([]func(uint64) string, len(tmpl.Points))
	for p, pt := range tmpl.Points {
		keys[p] = cache.PointKey(pt.Label, pt.Workload)
	}
	for g := 0; g < total; g++ {
		p, _ := grid.Split(g)
		c.keys[g] = keys[p](grid.Seed(g))
	}
	return c
}

// Load implements runner.CellCache.
func (c *cellCache) Load(idx int) (sim.Metrics, bool) {
	m, ok := c.store.Load(c.keys[idx])
	c.hit[idx] = ok
	return m, ok
}

// Store implements runner.CellCache. A failed write is deliberately
// dropped: the cache is best-effort and the computed result is already
// on its way to the fold.
func (c *cellCache) Store(idx int, m sim.Metrics) {
	_ = c.store.Put(c.keys[idx], m)
}

// mark renders cell idx's Event.Cache annotation; a nil adapter (no
// cache configured) marks nothing, keeping the event stream's schema
// unchanged for cacheless campaigns.
func (c *cellCache) mark(idx int) string {
	if c == nil {
		return ""
	}
	if c.hit[idx] {
		return CacheHit
	}
	return CacheMiss
}
