package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// checkAscending fails unless ids is strictly ascending and exactly the
// set want.
func checkAscending(t *testing.T, ids, want []int) {
	t.Helper()
	sorted := append([]int(nil), want...)
	sort.Ints(sorted)
	if len(ids) != len(sorted) {
		t.Fatalf("popSlot returned %d ids, want %d (%v vs %v)", len(ids), len(sorted), ids, sorted)
	}
	for i := range ids {
		if ids[i] != sorted[i] {
			t.Fatalf("popSlot order wrong at %d: got %v, want %v", i, ids, sorted)
		}
		if i > 0 && ids[i] <= ids[i-1] {
			t.Fatalf("popSlot not strictly ascending at %d: %v", i, ids)
		}
	}
}

// TestEventWheelPopSlotOrders drives every popSlot drain through the
// push orders that matter: already sorted, interleaved ascending
// batches, and fully descending singletons (the shape overflow
// migration produces). Besides the one- and two-wake shortcuts, the
// capacity-64 rows take the whole-bitmap readout; the capacity-2048
// rows have an id bitmap wider than 16 words, so they take the span
// readout or — when a handful of ids spans more than 4k+8 words — the
// sorted fallback (popSlotSorted). A plain descending series 100 apart
// spans only ~1.6 words per id, so its row adds one far outlier to
// reach the fallback.
func TestEventWheelPopSlotOrders(t *testing.T) {
	const slot = int64(7)
	push := func(w *eventWheel, ids ...int) {
		for _, id := range ids {
			w.push(slot, int32(id))
		}
	}
	descending := func(from, step, to int) []int {
		var ids []int
		for id := from; id >= to; id -= step {
			ids = append(ids, id)
		}
		return ids
	}
	cases := []struct {
		name     string
		capacity int
		ids      []int // push order
	}{
		{"already-sorted", 64, []int{0, 1, 2, 3, 5, 8, 13, 21, 34}},
		{"two-interleaved-batches", 64, []int{0, 3, 6, 9, 12, 15, 1, 4, 7, 10, 13, 16}},
		{"descending-singletons", 64, descending(63, 1, 0)},
		{"single", 64, []int{42}},
		{"pair", 64, []int{9, 2}},
		{"wide-span-readout", 2048, descending(2000, 100, 0)},
		{"wide-scattered-sorted", 2048, []int{3000, 7, 1500, 2047}},
		{"wide-descending-singletons-sorted", 2048, append([]int{4095}, descending(500, 100, 0)...)},
		{"wide-interleaved-batches-sorted", 2048, []int{0, 1024, 4000, 5, 1030, 3990}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newEventWheel(tc.capacity)
			push(w, tc.ids...)
			got := w.popSlot(slot, nil)
			checkAscending(t, got, tc.ids)
			if w.size != 0 {
				t.Fatalf("size = %d after draining, want 0", w.size)
			}
			if w.summary != 0 {
				t.Fatalf("summary = %#x after draining, want 0", w.summary)
			}
			for i, word := range w.idbits {
				if word != 0 {
					t.Fatalf("idbits[%d] = %#x after draining, want 0", i, word)
				}
			}
		})
	}
}

// TestEventWheelNextWakeSlot exercises the two-level bitmap scan across
// all its branches: same group, later group, window wrap-around, and
// the overflow-only case.
func TestEventWheelNextWakeSlot(t *testing.T) {
	w := newEventWheel(16)
	if _, ok := w.nextWakeSlot(0); ok {
		t.Fatal("empty wheel reported a wake")
	}
	check := func(cur, want int64) {
		t.Helper()
		got, ok := w.nextWakeSlot(cur)
		if !ok || got != want {
			t.Fatalf("nextWakeSlot(%d) = %d,%v, want %d,true", cur, got, ok, want)
		}
	}
	// Same-bucket hit and same-group scan.
	w.push(10, 1)
	check(10, 10)
	check(3, 10)
	// Later-group scan.
	w.push(700, 2)
	_ = w.popSlot(10, nil)
	check(11, 700)
	// Wrap-around: after advancing past the bucket's group, the only
	// remaining wake sits "behind" the cursor position modulo the window.
	w2 := newEventWheel(16)
	w2.advance(100)
	w2.push(100+wheelWindow-1, 5) // bucket just below cursor position 100
	check2 := func(cur, want int64) {
		t.Helper()
		got, ok := w2.nextWakeSlot(cur)
		if !ok || got != want {
			t.Fatalf("nextWakeSlot(%d) = %d,%v, want %d,true", cur, got, ok, want)
		}
	}
	check2(100, 100+wheelWindow-1)
	// Overflow-only: a far-future wake with empty buckets.
	w3 := newEventWheel(16)
	w3.push(10*wheelWindow, 3)
	if got, ok := w3.nextWakeSlot(0); !ok || got != 10*wheelWindow {
		t.Fatalf("overflow-only nextWakeSlot = %d,%v, want %d,true", got, ok, int64(10*wheelWindow))
	}
}

// TestEventWheelOverflowMigration pushes far-future wakes through the
// heap tier and verifies that after the window advances, popSlot emits
// the migrated bucket in ascending id order.
func TestEventWheelOverflowMigration(t *testing.T) {
	w := newEventWheel(128)
	const slot = int64(3 * wheelWindow)
	var want []int
	for id := 99; id >= 0; id-- {
		w.push(slot, int32(id))
		want = append(want, id)
	}
	if len(w.overflow) != 100 {
		t.Fatalf("expected all pushes in overflow, got %d", len(w.overflow))
	}
	w.advance(slot)
	got := w.popSlot(slot, nil)
	checkAscending(t, got, want)
}

// TestEventWheelRandomizedOracle cycles one wheel through many slot
// generations — spread across multiple buckets per generation, with
// resets interleaved — checking every pop against a sort oracle. The
// chain array, id bitmap, and overflow heap are all reused across
// generations, exactly as in a pooled execution.
func TestEventWheelRandomizedOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	w := newEventWheel(64)
	cur := int64(0)
	for gen := 0; gen < 300; gen++ {
		if gen%97 == 0 {
			w.reset()
			cur = 0
		}
		w.advance(cur)
		// Schedule unique ids across a handful of nearby (and a few
		// far-future) slots.
		slots := make(map[int64][]int)
		seen := map[int]bool{}
		for k := 0; k < 1+rnd.Intn(40); k++ {
			id := rnd.Intn(1000)
			if seen[id] {
				continue
			}
			seen[id] = true
			gap := int64(rnd.Intn(12))
			if rnd.Intn(8) == 0 {
				gap = int64(wheelWindow + rnd.Intn(2*wheelWindow))
			}
			s := cur + gap
			slots[s] = append(slots[s], id)
			w.push(s, int32(id))
		}
		// Drain in event order until the wheel is empty.
		for w.size > 0 {
			next, ok := w.nextWakeSlot(cur)
			if !ok {
				t.Fatalf("gen %d: size %d but no next wake", gen, w.size)
			}
			cur = next
			w.advance(cur)
			got := w.popSlot(cur, nil)
			want, ok := slots[cur]
			if !ok {
				t.Fatalf("gen %d: popped slot %d with no scheduled wakes (%v)", gen, cur, got)
			}
			checkAscending(t, got, want)
			delete(slots, cur)
			cur++
		}
		if len(slots) != 0 {
			t.Fatalf("gen %d: wheel drained but %d slots unpopped", gen, len(slots))
		}
		cur += int64(rnd.Intn(3 * wheelWindow))
	}
}
