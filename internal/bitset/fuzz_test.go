package bitset

import "testing"

// FuzzSetRange cross-checks the word-blasting SetRange against a naive
// bit-by-bit reference.
func FuzzSetRange(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(64))
	f.Add(uint16(3), uint16(7), uint16(100))
	f.Add(uint16(63), uint16(65), uint16(128))
	f.Add(uint16(64), uint16(192), uint16(256))
	f.Fuzz(func(t *testing.T, loRaw, hiRaw, nRaw uint16) {
		n := int(nRaw)%512 + 1
		lo := int(loRaw) % (n + 1)
		hi := int(hiRaw) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		fast := New(n)
		fast.SetRange(lo, hi)
		slow := New(n)
		for i := lo; i < hi; i++ {
			slow.Set(i)
		}
		if fast.Count() != slow.Count() {
			t.Fatalf("SetRange(%d,%d) on %d bits: count %d vs naive %d", lo, hi, n, fast.Count(), slow.Count())
		}
		for i := 0; i < n; i++ {
			if fast.Test(i) != slow.Test(i) {
				t.Fatalf("SetRange(%d,%d) bit %d: %v vs naive %v", lo, hi, i, fast.Test(i), slow.Test(i))
			}
		}
	})
}
