package main

import (
	"sync"
	"time"
)

// refCalibS is the wall time of calibrate on the reference host. The
// shared hosts this benchmark runs on change speed by up to half within
// minutes, as other tenants load the cores' siblings, and every wall
// time moves with it. So each end-to-end time is measured between two
// calibrations and scaled to the reference host: a time taken while
// calibrate ran at twice refCalibS is reported halved.
const refCalibS = 0.1

// calibrate runs a fixed amount of CPU work on one goroutine per pool
// worker — xorshift draws, branches and scattered reads and writes into
// a small per-worker table, the shape of a slot loop — and returns its
// wall time in seconds. The work depends on no code outside this
// package, so a change to the program under test never changes it.
func calibrate() float64 {
	const iters = 1 << 24
	start := time.Now()
	var wg sync.WaitGroup
	sink := make([]uint64, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var table [1 << 14]uint32
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			var acc uint64
			for range iters {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & uint64(len(table)-1)
				if x&0x300 == 0 {
					table[j] += uint32(x >> 32)
				} else {
					acc += uint64(table[j])
				}
			}
			sink[w] = acc
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// hostClock times work between calibrations; each calibration closes
// one measurement and opens the next.
type hostClock struct {
	calibs []float64 // every calibration's wall time, in order
}

// measure runs f, which returns the wall time in seconds of the work it
// times, and returns that time as measured and scaled to the reference
// host by the mean of the calibrations on either side of f.
func (c *hostClock) measure(f func() (float64, error)) (raw, ref float64, err error) {
	if len(c.calibs) == 0 {
		c.calibs = append(c.calibs, calibrate())
	}
	before := c.calibs[len(c.calibs)-1]
	if raw, err = f(); err != nil {
		return 0, 0, err
	}
	after := calibrate()
	c.calibs = append(c.calibs, after)
	return raw, raw * refCalibS / ((before + after) / 2), err
}
