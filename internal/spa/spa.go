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
// instantiation), and the monoid-generic path is the AddWith method.
package spa

import "spkadd/internal/matrix"

// SPAOf is a sparse accumulator over row indices [0, m) with values of
// element type T. The zero value has no rows; it works once Grow(m)
// has been called. It is not safe for concurrent use; each worker
// keeps its own (the paper's O(T*m) aggregate memory cost, §III-A).
type SPAOf[T matrix.Number] struct {
	vals   []T
	stamps []uint32 // slot is valid iff stamps[r] == gen
	gen    uint32
	idx    []matrix.Index // valid indices, insertion order

	// Touches counts accumulate operations for the Table I work tests.
	Touches int64
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

// AppendUnsorted appends the accumulated entries in insertion order
// to rows/vals and returns the extended slices (lines 8-10 of
// Algorithm 4); a sorted emit sorts them afterwards.
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
