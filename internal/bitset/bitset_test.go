package bitset

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("fresh set Count = %d", s.Count())
	}
	for i := 0; i < 130; i++ {
		if s.Test(i) {
			t.Fatalf("fresh set has bit %d set", i)
		}
	}
}

func TestSetClearTest(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
}

func TestSetIdempotent(t *testing.T) {
	s := New(10)
	s.Set(3)
	s.Set(3)
	if s.Count() != 1 {
		t.Fatalf("double Set changed count: %d", s.Count())
	}
	s.Clear(3)
	s.Clear(3)
	if s.Count() != 0 {
		t.Fatalf("double Clear changed count: %d", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(*Set){
		func(s *Set) { s.Set(-1) },
		func(s *Set) { s.Set(100) },
		func(s *Set) { s.Test(100) },
		func(s *Set) { s.Clear(-5) },
		func(s *Set) { s.SetRange(-1, 5) },
		func(s *Set) { s.SetRange(5, 101) },
		func(s *Set) { s.SetRange(7, 3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f(New(100))
		}()
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestReset(t *testing.T) {
	s := New(300)
	s.SetRange(0, 300)
	if s.Count() != 300 {
		t.Fatalf("Count = %d, want 300", s.Count())
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after Reset = %d", s.Count())
	}
	if s.Len() != 300 {
		t.Fatalf("Reset changed capacity: %d", s.Len())
	}
}

func TestSetRange(t *testing.T) {
	cases := []struct{ lo, hi int }{
		{0, 0}, {0, 1}, {0, 64}, {0, 65}, {1, 63}, {63, 65}, {10, 200}, {64, 128}, {100, 101},
	}
	for _, tc := range cases {
		s := New(256)
		s.SetRange(tc.lo, tc.hi)
		if got, want := s.Count(), tc.hi-tc.lo; got != want {
			t.Errorf("SetRange(%d,%d) Count = %d, want %d", tc.lo, tc.hi, got, want)
		}
		for i := 0; i < 256; i++ {
			want := i >= tc.lo && i < tc.hi
			if s.Test(i) != want {
				t.Errorf("SetRange(%d,%d) bit %d = %v", tc.lo, tc.hi, i, s.Test(i))
			}
		}
	}
}

func TestGrowPreserves(t *testing.T) {
	s := New(64)
	s.Set(10)
	s.Set(63)
	s.Grow(1000)
	if s.Len() != 1000 {
		t.Fatalf("Len after Grow = %d", s.Len())
	}
	if !s.Test(10) || !s.Test(63) {
		t.Fatal("Grow lost bits")
	}
	if s.Test(999) {
		t.Fatal("Grow set spurious bits")
	}
	s.Set(999)
	if !s.Test(999) {
		t.Fatal("cannot set bit after Grow")
	}
}

func TestGrowShrinkIsNoop(t *testing.T) {
	s := New(100)
	s.Set(99)
	s.Grow(10)
	if s.Len() != 100 || !s.Test(99) {
		t.Fatal("Grow with smaller n must be a no-op")
	}
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountMatchesSets(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		uniq := map[uint16]bool{}
		for _, i := range idx {
			s.Set(int(i))
			uniq[i] = true
		}
		return s.Count() == len(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Set then Test always true; Clear then Test always false.
func TestQuickSetClearRoundTrip(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		for _, i := range idx {
			s.Set(int(i))
			if !s.Test(int(i)) {
				return false
			}
			s.Clear(int(i))
			if s.Test(int(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetTest(b *testing.B) {
	s := New(1024)
	for i := 0; i < b.N; i++ {
		s.Set(i & 1023)
		if !s.Test(i & 1023) {
			b.Fatal("bit missing")
		}
	}
}
