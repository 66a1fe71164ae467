// Package spa implements the sparse accumulator (SPA) of Gilbert,
// Moler and Schreiber, as used by the paper's SPAAdd (Algorithm 4):
// a dense value array of length m plus a list of the indices that hold
// valid entries. Validity is a per-slot generation stamp, so Clear is
// O(1) — bump the generation — and the SPA can be reused across all
// columns a worker processes (and across calls, resident in a
// Workspace) without O(m) re-initialization.
//
// The value axis is generic over matrix.Number: the "+" fast path is
// the Arith-constrained free function Accum (inlined += per
// instantiation), the monoid-generic path is the AddWith method, and
// SPA aliases the float64 instantiation.
package spa

import "spkadd/internal/matrix"

// SPAOf is a sparse accumulator over row indices [0, m) with values of
// element type T. It is not safe for concurrent use; the parallel
// driver allocates one per worker (the paper's O(T*m) aggregate memory
// cost, §III-A).
type SPAOf[T matrix.Number] struct {
	vals   []T
	stamps []uint32 // slot is valid iff stamps[r] == gen
	gen    uint32
	idx    []matrix.Index // valid indices, insertion order

	// Touches counts accumulate operations for the Table I work tests.
	Touches int64
}

// SPA is the float64 sparse accumulator.
type SPA = SPAOf[matrix.Value]

// New returns a float64 SPA for matrices with m rows.
func New(m int) *SPA {
	return NewOf[matrix.Value](m)
}

// NewOf returns a SPA over T for matrices with m rows.
func NewOf[T matrix.Number](m int) *SPAOf[T] {
	return &SPAOf[T]{
		vals:   make([]T, m),
		stamps: make([]uint32, m),
		gen:    1,
	}
}

// Rows returns the row capacity m.
func (s *SPAOf[T]) Rows() int { return len(s.vals) }

// Len returns the number of valid entries accumulated so far.
func (s *SPAOf[T]) Len() int { return len(s.idx) }

// Grow enlarges the accumulator to m rows, keeping the Touches
// counter. It must only be called on a cleared SPA (between columns);
// smaller or equal m is a no-op.
func (s *SPAOf[T]) Grow(m int) {
	if m <= len(s.vals) {
		return
	}
	s.vals = make([]T, m)
	s.stamps = make([]uint32, m)
	s.gen = 1
	s.idx = s.idx[:0]
}

// Reserve grows the valid-index list to hold n entries, so a column
// with up to n distinct rows accumulates without allocating. It must
// only be called on a cleared SPA (between columns).
func (s *SPAOf[T]) Reserve(n int) {
	if cap(s.idx) < n {
		s.idx = make([]matrix.Index, 0, n)
	}
}

// Accum accumulates v at row r with += (lines 5-7 of Algorithm 4).
// It is the "+" fast path, a free function constrained to the
// arithmetic types so each instantiation inlines to a stamped
// scatter-add with no per-entry dispatch.
//
//spkadd:noalloc per-entry hot path of the SPA kernels
func Accum[T matrix.Arith](s *SPAOf[T], r matrix.Index, v T) {
	s.Touches++
	if s.stamps[r] == s.gen {
		s.vals[r] += v
		return
	}
	s.stamps[r] = s.gen
	s.vals[r] = v
	s.idx = append(s.idx, r)
}

// AddWith is Accum under an arbitrary combine operation: the first
// touch of r in the current generation stores v, later touches
// replace the slot with combine(stored, v). The generation stamps do
// for the generic path exactly what they do for "+": Clear stays
// O(1) and no identity element is ever materialized in the dense
// array. Accum is AddWith with "+" inlined; callers pick once per
// column.
//
//spkadd:noalloc per-entry hot path of the SPA kernels
func (s *SPAOf[T]) AddWith(r matrix.Index, v T, combine func(a, b T) T) {
	s.Touches++
	if s.stamps[r] == s.gen {
		s.vals[r] = combine(s.vals[r], v)
		return
	}
	s.stamps[r] = s.gen
	s.vals[r] = v
	s.idx = append(s.idx, r)
}

// Get returns the accumulated value at r (the zero of T if absent).
func (s *SPAOf[T]) Get(r matrix.Index) T {
	if s.stamps[r] != s.gen {
		var z T
		return z
	}
	return s.vals[r]
}

// Indices returns the valid indices in insertion order (shared slice;
// callers must not retain it across Clear).
func (s *SPAOf[T]) Indices() []matrix.Index { return s.idx }

// AppendSorted appends the accumulated entries in ascending row order
// to rows/vals and returns the extended slices (lines 8-10 of
// Algorithm 4, sorted-output variant). It sorts the index list in
// place.
func (s *SPAOf[T]) AppendSorted(rows []matrix.Index, vals []T) ([]matrix.Index, []T) {
	sortIndices(s.idx)
	for _, r := range s.idx {
		rows = append(rows, r)
		vals = append(vals, s.vals[r])
	}
	return rows, vals
}

// AppendUnsorted appends entries in insertion order.
func (s *SPAOf[T]) AppendUnsorted(rows []matrix.Index, vals []T) ([]matrix.Index, []T) {
	for _, r := range s.idx {
		rows = append(rows, r)
		vals = append(vals, s.vals[r])
	}
	return rows, vals
}

// Clear invalidates every entry in O(1) by bumping the generation;
// values need no zeroing because Accum overwrites a slot on first
// sight within a generation. Stamp wraparound (once per 2^32 clears)
// restores the invariant with one O(m) sweep.
func (s *SPAOf[T]) Clear() {
	s.idx = s.idx[:0]
	s.gen++
	if s.gen == 0 {
		for i := range s.stamps {
			s.stamps[i] = 0
		}
		s.gen = 1
	}
}

// sortIndices is an insertion-friendly pdq-free sort for Index slices.
// Columns are typically short; a quicksort specialised to Index avoids
// sort.Slice's reflection-based swaps in this hot path, and recursing
// through a top-level function (not a self-referencing closure) keeps
// the sorted-output path allocation-free.
func sortIndices(a []matrix.Index) {
	if len(a) > 1 {
		quickSortIndices(a, 0, len(a)-1)
	}
}

func quickSortIndices(a []matrix.Index, lo, hi int) {
	for hi-lo > 12 {
		p := partition(a, lo, hi)
		if p-lo < hi-p {
			quickSortIndices(a, lo, p)
			lo = p + 1
		} else {
			quickSortIndices(a, p+1, hi)
			hi = p
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func partition(a []matrix.Index, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot.
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[lo] {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	pivot := a[mid]
	a[mid], a[hi-1] = a[hi-1], a[mid]
	i, j := lo, hi-1
	for {
		for i++; a[i] < pivot; i++ {
		}
		for j--; a[j] > pivot; j-- {
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}
