package driver

import (
	"multicast/internal/cache"
	"multicast/internal/campaign"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

// cellCache adapts a cache.Store to the runner grid's lookup/store
// seam for one campaign: the worker that loads or stores a cell
// derives its content address, from its template point's identity
// (label + workload string, quoted once per point) and the grid's
// per-cell seed, and each Load records whether it hit so the fold
// stage can annotate the cell's progress event.
//
// The hit slice is written by the computing worker and read only after
// the cell's result has crossed a channel into the fold goroutine, so
// the per-index handoff is ordered; distinct cells never share an
// index.
type cellCache struct {
	store *cache.Store
	grid  runner.Grid
	keys  []func(seed uint64) string // per point: cache.PointKey
	hit   []bool
}

// newCellCache prepares the per-point key functions of the campaign's
// grid.
func newCellCache(store *cache.Store, tmpl *campaign.Summary, grid runner.Grid) *cellCache {
	c := &cellCache{
		store: store,
		grid:  grid,
		keys:  make([]func(uint64) string, len(tmpl.Points)),
		hit:   make([]bool, grid.Total()),
	}
	for p, pt := range tmpl.Points {
		c.keys[p] = cache.PointKey(pt.Label, pt.Workload)
	}
	return c
}

// key derives cell idx's content address.
func (c *cellCache) key(idx int) string {
	p, _ := c.grid.Split(idx)
	return c.keys[p](c.grid.Seed(idx))
}

// Load implements runner.CellCache.
func (c *cellCache) Load(idx int) (sim.Metrics, bool) {
	m, ok := c.store.Load(c.key(idx))
	c.hit[idx] = ok
	return m, ok
}

// Store implements runner.CellCache. A failed write is deliberately
// dropped: the cache is best-effort and the computed result is already
// on its way to the fold.
func (c *cellCache) Store(idx int, m sim.Metrics) {
	_ = c.store.Put(c.key(idx), m)
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
