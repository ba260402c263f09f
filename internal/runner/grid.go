package runner

import (
	"fmt"
	"math"

	"multicast/internal/sim"
)

// Grid is the flattened (point × trial) index space of a sweep — the
// cell-granular execution entry point under RunSweep and the campaign
// driver's pool. Cell g = p·Trials + t runs point p's workload with
// seed points[p].Seed + t, the same determinism contract RunSweep
// states; Grid just exposes it one cell at a time, so a pool that hands
// cells to whichever worker is free (internal/driver) computes exactly
// the executions a `-shard i/k` run of RunSweep would.
type Grid struct {
	// Points are the workload points, in sweep order.
	Points []sim.Config
	// Trials is the trial count per point.
	Trials int
	// Cache, when non-nil, is consulted before a cell simulates and
	// fed after it does — the content-addressed result cache seam. A
	// hit must return exactly the metrics the simulation would have
	// produced (the cache layer's checksum discipline guarantees a
	// damaged entry reads as a miss instead), so a cached cell is
	// indistinguishable from a computed one to every layer above.
	Cache CellCache
}

// CellCache is the lookup/store seam Grid.RunCell threads cell results
// through, keyed by global grid index. Implementations (see
// internal/driver) map the index to a content address derived from the
// cell's identity. Load and Store are called concurrently from worker
// goroutines.
type CellCache interface {
	// Load returns the cached metrics of cell idx, or ok == false to
	// make the cell simulate. It must never return damaged data.
	Load(idx int) (m sim.Metrics, ok bool)
	// Store records cell idx's freshly computed metrics, best-effort:
	// a failed store may only cost a future re-simulation.
	Store(idx int, m sim.Metrics)
}

// NewGrid validates the grid shape: at least one point, a positive
// per-point trial count, and a total cell count that fits in an int.
func NewGrid(points []sim.Config, trials int) (Grid, error) {
	if len(points) == 0 {
		return Grid{}, fmt.Errorf("runner: grid needs at least one point")
	}
	if trials <= 0 {
		return Grid{}, fmt.Errorf("runner: trials per point = %d must be positive", trials)
	}
	if trials > math.MaxInt/len(points) {
		return Grid{}, fmt.Errorf("runner: grid %d×%d overflows", len(points), trials)
	}
	return Grid{Points: points, Trials: trials}, nil
}

// Total is the number of grid cells, len(Points) · Trials.
func (g Grid) Total() int { return len(g.Points) * g.Trials }

// Split resolves global index idx into its (point, trial) pair.
func (g Grid) Split(idx int) (point, trial int) {
	return idx / g.Trials, idx % g.Trials
}

// Seed is the seed cell idx runs with: its point's base seed plus its
// trial index — exactly the seed the trial uses when the point runs
// alone through Run.
func (g Grid) Seed(idx int) uint64 {
	p, t := g.Split(idx)
	return g.Points[p].Seed + uint64(t)
}

// RunCell executes one grid cell on the given executor, wiring
// interrupt into the execution's cancellation hook. Which goroutine or
// machine calls it never affects the result — the cell is a pure
// function of (point workload, seed). Failures name the cell.
func (g Grid) RunCell(interrupt <-chan struct{}, ex *sim.Executor, idx int) (sim.Metrics, error) {
	m, err := g.run(interrupt, ex, idx)
	if err != nil {
		p, t := g.Split(idx)
		return m, fmt.Errorf("runner: cell %d (point %d trial %d, seed %d): %w",
			idx, p, t, g.Seed(idx), err)
	}
	return m, nil
}

// run executes one cell and returns the engine's error untouched — the
// shared core of RunCell and RunSweep, which wrap failures in their own
// vocabularies. With a Cache attached, a hit short-circuits the
// simulation entirely and a computed result is stored back; cells are
// pure functions of their identity, so either path yields the same
// metrics.
func (g Grid) run(interrupt <-chan struct{}, ex *sim.Executor, idx int) (sim.Metrics, error) {
	if g.Cache != nil {
		if m, ok := g.Cache.Load(idx); ok {
			return m, nil
		}
	}
	p, t := g.Split(idx)
	c := g.Points[p]
	c.Interrupt = interrupt
	c.Seed += uint64(t)
	m, err := ex.Run(c)
	if err == nil && g.Cache != nil {
		g.Cache.Store(idx, m)
	}
	return m, err
}
