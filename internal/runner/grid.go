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
// vocabularies.
func (g Grid) run(interrupt <-chan struct{}, ex *sim.Executor, idx int) (sim.Metrics, error) {
	p, t := g.Split(idx)
	c := g.Points[p]
	c.Interrupt = interrupt
	c.Seed += uint64(t)
	return ex.Run(c)
}
