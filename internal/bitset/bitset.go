// Package bitset implements a dense bitset used for per-slot jam masks and
// channel occupancy tracking. The simulator resolves every channel every
// slot, so membership tests and population counts are on the hot path; the
// representation is a plain []uint64 with no indirection.
package bitset

import "math/bits"

// Set is a fixed-capacity dense bitset. The zero value has capacity zero;
// use New or Grow before setting bits.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns a set with capacity for n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Grow ensures capacity for at least n bits, preserving contents.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	need := (n + 63) / 64
	if need > len(s.words) {
		w := make([]uint64, need)
		copy(w, s.words)
		s.words = w
	}
	s.n = n
}

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i. It panics if i is out of range.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// Reset clears all bits without changing capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SetRange sets all bits in [lo, hi).
func (s *Set) SetRange(lo, hi int) {
	if lo < 0 || hi > s.n || lo > hi {
		panic("bitset: SetRange bounds out of range")
	}
	if lo == hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if first == last {
		s.words[first] |= loMask & hiMask
		return
	}
	s.words[first] |= loMask
	for i := first + 1; i < last; i++ {
		s.words[i] = ^uint64(0)
	}
	s.words[last] |= hiMask
}
