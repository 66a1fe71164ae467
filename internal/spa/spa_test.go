package spa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/matrix"
)

func TestAddAndGet(t *testing.T) {
	s := &SPAOf[matrix.Value]{}
	s.Grow(10)
	Accum(s, 3, 1)
	Accum(s, 7, 2)
	Accum(s, 3, 4)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if v := s.Get(3); v != 5 {
		t.Errorf("Get(3) = %v, want 5", v)
	}
	if v := s.Get(0); v != 0 {
		t.Errorf("Get(0) = %v, want 0", v)
	}
}

// TestReserve: after Reserve(n), a column of n distinct rows
// accumulates into the reserved index list without regrowing it.
func TestReserve(t *testing.T) {
	const n = 1000
	s := &SPAOf[matrix.Value]{}
	s.Grow(n)
	s.Reserve(n)
	reserved := cap(s.Indices())
	if reserved < n {
		t.Fatalf("Reserve(%d): index capacity %d", n, reserved)
	}
	for r := 0; r < n; r++ {
		Accum(s, matrix.Index(r), 1)
	}
	if got := cap(s.Indices()); got != reserved {
		t.Errorf("index list regrew from %d to %d", reserved, got)
	}
}

func TestClearIsSparse(t *testing.T) {
	s := &SPAOf[matrix.Value]{}
	s.Grow(1000)
	Accum(s, 5, 1)
	Accum(s, 500, 2)
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear did not empty the SPA")
	}
	if s.Get(5) != 0 || s.Get(500) != 0 {
		t.Error("values survived Clear")
	}
	// Reuse after clear.
	Accum(s, 5, 7)
	if s.Get(5) != 7 {
		t.Error("SPA broken after Clear")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after reuse", s.Len())
	}
}

func TestQuickMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(200) + 1
		s := &SPAOf[matrix.Value]{}
		s.Grow(m)
		want := map[matrix.Index]matrix.Value{}
		for i := 0; i < rng.Intn(400); i++ {
			r := matrix.Index(rng.Intn(m))
			v := float64(rng.Intn(9) - 4)
			Accum(s, r, v)
			want[r] += v
		}
		if s.Len() != len(want) {
			return false
		}
		rows, vals := s.AppendUnsorted(nil, nil)
		if len(rows) != len(want) {
			return false
		}
		for i, r := range rows {
			if v, ok := want[r]; !ok || v != vals[i] {
				return false
			}
			delete(want, r) // each row once
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAddWithCombine checks the generic accumulate: first touch
// stores, later touches fold through the combine, and Clear keeps
// O(1) generation semantics for the generic path too.
func TestAddWithCombine(t *testing.T) {
	maxC := func(a, b matrix.Value) matrix.Value { return max(a, b) }
	s := &SPAOf[matrix.Value]{}
	s.Grow(16)
	s.AddWith(4, -3, maxC)
	s.AddWith(4, 7, maxC)
	s.AddWith(4, 5, maxC)
	s.AddWith(9, 1, maxC)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if v := s.Get(4); v != 7 {
		t.Errorf("Get(4) = %v, want 7", v)
	}
	s.Clear()
	s.AddWith(4, -8, maxC)
	if v := s.Get(4); v != -8 {
		t.Errorf("after Clear, Get(4) = %v, want -8 (stale value combined)", v)
	}
	if s.Len() != 1 {
		t.Errorf("after Clear, Len = %d, want 1", s.Len())
	}
}
