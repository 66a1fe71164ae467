// Package kheap implements the k-way merge min-heap of the paper's
// HeapSpKAdd (Algorithm 3): a binary heap over (row, matrix, value)
// tuples, keyed by row index, holding at most one tuple per input
// matrix. Extract-min and insert cost O(lg k).
//
// The heap is specialised rather than built on container/heap: the
// interface-based stdlib heap costs an indirect call per comparison,
// which is measurable in this hot loop, and a fixed-capacity slice heap
// matches the paper's O(k) memory claim exactly. The value axis is
// generic over matrix.Number — the heap never combines values, only
// carries them, so every element type (including bool) uses the same
// code; Tuple aliases the float64 instantiation.
package kheap

import "spkadd/internal/matrix"

// TupleOf is one heap element: value v = A_mat(row, j).
type TupleOf[T matrix.Number] struct {
	Row matrix.Index
	Mat int32
	Val T
}

// Tuple is the float64 heap element.
type Tuple = TupleOf[matrix.Value]

// HeapOf is a binary min-heap of tuples ordered by Row. Ties on Row
// are broken by Mat, so equal-row tuples always surface in input
// order. That determinism is load-bearing for the monoid-generic
// merge: the driver folds colliding values in the order the heap
// yields them, and the Mat tie-break makes that order — hence the bit
// pattern of any floating-point combine — identical across runs and
// engines. The zero value is an empty heap; Grow(k) sizes it for k
// tuples, so the merge loop never reallocates.
type HeapOf[T matrix.Number] struct {
	a []TupleOf[T]

	// Ops counts sift operations for the Table I work tests.
	Ops int64
}

// Len returns the number of elements.
func (h *HeapOf[T]) Len() int { return len(h.a) }

// Reset empties the heap, keeping capacity. The Ops counter survives
// Reset so workers can accumulate across columns; callers zero it when
// flushing stats.
func (h *HeapOf[T]) Reset() { h.a = h.a[:0] }

// Grow ensures capacity for k tuples, preserving contents and the Ops
// counter, so a heap resident in a reused workspace adapts to a larger
// input collection without churning allocations inside the merge loop.
func (h *HeapOf[T]) Grow(k int) {
	if cap(h.a) >= k {
		return
	}
	a := make([]TupleOf[T], len(h.a), k)
	copy(a, h.a)
	h.a = a
}

func (h *HeapOf[T]) less(i, j int) bool {
	if h.a[i].Row != h.a[j].Row {
		return h.a[i].Row < h.a[j].Row
	}
	return h.a[i].Mat < h.a[j].Mat
}

// Push inserts t in O(lg k).
func (h *HeapOf[T]) Push(t TupleOf[T]) {
	h.a = append(h.a, t)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.Ops++
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// Min returns the minimum tuple without removing it. It panics on an
// empty heap, matching slice-bounds semantics.
func (h *HeapOf[T]) Min() TupleOf[T] { return h.a[0] }

// Pop removes and returns the minimum tuple in O(lg k).
func (h *HeapOf[T]) Pop() TupleOf[T] {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	h.siftDown(0)
	return top
}

// ReplaceMin replaces the minimum with t and restores heap order.
// This is the common HeapAdd step (extract min, insert successor from
// the same matrix) fused into one O(lg k) sift instead of two.
func (h *HeapOf[T]) ReplaceMin(t TupleOf[T]) {
	h.a[0] = t
	h.siftDown(0)
}

func (h *HeapOf[T]) siftDown(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.Ops++
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
}
