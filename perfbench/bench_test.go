package main

import (
	"context"
	"testing"
)

// TestTinyWorkloads runs every workload's shape — cache mode and flush
// cadence — at smoke size: the serial composition must merge to the same
// bytes as RunScenarioCampaign, and two campaigns to the same digest.
func TestTinyWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		w.n, w.budget, w.trials = 16, 300, 2
		t.Run(w.name, func(t *testing.T) {
			b, _, err := setUp(ctx, w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			composed, _, err := b.timed(b.composed(tr))
			if err != nil {
				t.Fatal(err)
			}
			var driven [2]string
			for i := range driven {
				driven[i], _, err = b.timed(b.driven(ctx, workers))
				if err != nil {
					t.Fatal(err)
				}
			}
			if composed != driven[0] {
				t.Errorf("composition merged to %s, RunScenarioCampaign to %s", composed, driven[0])
			}
			if driven[0] != driven[1] {
				t.Errorf("two campaigns merged to %s and %s", driven[0], driven[1])
			}
			m := layerMetrics(tr.spans, b.cells())
			if w.cache == cacheWarm && (m["cache.hits"] != float64(b.cells()) || m["sim.busy_s"] != 0) {
				t.Errorf("warm replay: %v hits of %d cells, %vs simulating", m["cache.hits"], b.cells(), m["sim.busy_s"])
			}
		})
	}
}
