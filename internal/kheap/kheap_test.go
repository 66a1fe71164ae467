package kheap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/matrix"
)

func TestPopOrdering(t *testing.T) {
	h := &HeapOf[matrix.Value]{}
	h.Grow(8)
	rows := []matrix.Index{5, 1, 9, 3, 3, 0, 7}
	for i, r := range rows {
		h.Push(Tuple{Row: r, Mat: int32(i), Val: float64(i)})
	}
	var got []matrix.Index
	for h.Len() > 0 {
		got = append(got, h.Pop().Row)
	}
	want := []matrix.Index{0, 1, 3, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestTieBreakByMatrix(t *testing.T) {
	h := &HeapOf[matrix.Value]{}
	h.Grow(4)
	h.Push(Tuple{Row: 2, Mat: 3})
	h.Push(Tuple{Row: 2, Mat: 1})
	h.Push(Tuple{Row: 2, Mat: 2})
	if m := h.Pop().Mat; m != 1 {
		t.Errorf("first pop Mat = %d, want 1", m)
	}
	if m := h.Pop().Mat; m != 2 {
		t.Errorf("second pop Mat = %d, want 2", m)
	}
}

func TestReplaceMin(t *testing.T) {
	h := &HeapOf[matrix.Value]{}
	h.Grow(4)
	h.Push(Tuple{Row: 1, Val: 10})
	h.Push(Tuple{Row: 5, Val: 50})
	h.Push(Tuple{Row: 3, Val: 30})
	h.ReplaceMin(Tuple{Row: 7, Val: 70})
	var got []matrix.Index
	for h.Len() > 0 {
		got = append(got, h.Pop().Row)
	}
	want := []matrix.Index{3, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after ReplaceMin pops = %v, want %v", got, want)
		}
	}
}

func TestResetReuse(t *testing.T) {
	h := &HeapOf[matrix.Value]{}
	h.Grow(2)
	h.Push(Tuple{Row: 1})
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty heap")
	}
	h.Push(Tuple{Row: 9})
	if h.Min().Row != 9 {
		t.Error("heap broken after Reset")
	}
}

func TestQuickHeapSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		h := &HeapOf[matrix.Value]{}
		h.Grow(n)
		for i := 0; i < n; i++ {
			h.Push(Tuple{Row: matrix.Index(rng.Intn(50)), Mat: int32(i)})
		}
		prev := Tuple{Row: -1, Mat: -1}
		for h.Len() > 0 {
			cur := h.Pop()
			if cur.Row < prev.Row || (cur.Row == prev.Row && cur.Mat < prev.Mat) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickReplaceMinEquivalence(t *testing.T) {
	// ReplaceMin must behave exactly like Pop-then-Push.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		h1, h2 := &HeapOf[matrix.Value]{}, &HeapOf[matrix.Value]{}
		h1.Grow(n)
		h2.Grow(n)
		for i := 0; i < n; i++ {
			tup := Tuple{Row: matrix.Index(rng.Intn(20)), Mat: int32(i)}
			h1.Push(tup)
			h2.Push(tup)
		}
		for step := 0; step < 20 && h1.Len() > 0; step++ {
			tup := Tuple{Row: matrix.Index(rng.Intn(20)), Mat: int32(step + 100)}
			h1.ReplaceMin(tup)
			h2.Pop()
			h2.Push(tup)
			if h1.Min() != h2.Min() || h1.Len() != h2.Len() {
				return false
			}
		}
		// Drain both; sequences must match.
		for h1.Len() > 0 {
			if h1.Pop() != h2.Pop() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
