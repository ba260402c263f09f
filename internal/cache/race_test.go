//go:build race

package cache

// raceEnabled reports a race-detector build, whose instrumentation
// moves Load's read buffer to the heap: allocation counts do not hold
// under it.
const raceEnabled = true
