package matrix

import (
	"fmt"
	"math"
	"sort"
)

// CSCOf is a sparse matrix in compressed sparse column format over
// element type T.
//
// Column j occupies positions ColPtr[j]..ColPtr[j+1] of RowIdx and Val.
// Columns may be sorted by row index or not; algorithms that require
// sorted columns (2-way merge, heap) state so and can be checked with
// IsColumnSorted. The zero value is an empty 0x0 matrix.
type CSCOf[T Number] struct {
	Rows, Cols int
	ColPtr     []int64 // length Cols+1, monotone non-decreasing
	RowIdx     []Index // length NNZ
	Val        []T     // length NNZ
}

// CSC is the float64 CSC matrix, the paper's element type.
type CSC = CSCOf[Value]

// NewCSC returns an empty float64 rows x cols matrix with capacity for
// nnzCap nonzeros.
func NewCSC(rows, cols, nnzCap int) *CSC {
	return NewCSCOf[Value](rows, cols, nnzCap)
}

// NewCSCOf returns an empty rows x cols matrix over T with capacity
// for nnzCap nonzeros.
func NewCSCOf[T Number](rows, cols, nnzCap int) *CSCOf[T] {
	return &CSCOf[T]{
		Rows:   rows,
		Cols:   cols,
		ColPtr: make([]int64, cols+1),
		RowIdx: make([]Index, 0, nnzCap),
		Val:    make([]T, 0, nnzCap),
	}
}

// NNZ returns the number of stored entries.
func (a *CSCOf[T]) NNZ() int { return len(a.RowIdx) }

// ColNNZ returns the number of stored entries in column j.
func (a *CSCOf[T]) ColNNZ(j int) int { return int(a.ColPtr[j+1] - a.ColPtr[j]) }

// ColRows returns the row-index slice of column j (shared storage).
func (a *CSCOf[T]) ColRows(j int) []Index { return a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]] }

// ColVals returns the value slice of column j (shared storage).
func (a *CSCOf[T]) ColVals(j int) []T { return a.Val[a.ColPtr[j]:a.ColPtr[j+1]] }

// At returns the value at (i, j), or the zero of T if no entry is
// stored there, summing duplicates (bool: OR). Columns need not be
// sorted; lookup is linear in the column length.
func (a *CSCOf[T]) At(i, j int) T {
	rows, vals := a.ColRows(j), a.ColVals(j)
	var s T
	for p, r := range rows {
		if int(r) == i {
			s = AddVal(s, vals[p])
		}
	}
	return s
}

// Validate checks structural invariants: dimensions non-negative,
// ColPtr monotone covering RowIdx/Val, and all row indices in range.
func (a *CSCOf[T]) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("%w: negative dimensions %dx%d", ErrInvalid, a.Rows, a.Cols)
	}
	if len(a.ColPtr) != a.Cols+1 {
		return fmt.Errorf("%w: len(ColPtr)=%d, want Cols+1=%d", ErrInvalid, len(a.ColPtr), a.Cols+1)
	}
	if len(a.RowIdx) != len(a.Val) {
		return fmt.Errorf("%w: len(RowIdx)=%d != len(Val)=%d", ErrInvalid, len(a.RowIdx), len(a.Val))
	}
	if a.ColPtr[0] != 0 {
		return fmt.Errorf("%w: ColPtr[0] != 0", ErrInvalid)
	}
	for j := 0; j < a.Cols; j++ {
		if a.ColPtr[j+1] < a.ColPtr[j] {
			return fmt.Errorf("%w: ColPtr not monotone at column %d", ErrInvalid, j)
		}
	}
	if a.ColPtr[a.Cols] != int64(len(a.RowIdx)) {
		return fmt.Errorf("%w: ColPtr[Cols]=%d != nnz=%d", ErrInvalid, a.ColPtr[a.Cols], len(a.RowIdx))
	}
	for p, r := range a.RowIdx {
		if r < 0 || int(r) >= a.Rows {
			return fmt.Errorf("%w: row index %d out of range [0,%d) at position %d", ErrInvalid, r, a.Rows, p)
		}
	}
	return nil
}

// IsColumnSorted reports whether every column's row indices are in
// strictly ascending order (i.e. sorted and duplicate-free).
func (a *CSCOf[T]) IsColumnSorted() bool {
	for j := 0; j < a.Cols; j++ {
		rows := a.ColRows(j)
		for p := 1; p < len(rows); p++ {
			if rows[p] <= rows[p-1] {
				return false
			}
		}
	}
	return true
}

// SortColumns sorts each column in place by ascending row index,
// summing duplicate row indices into a single entry (bool: OR). It
// returns the receiver for chaining.
func (a *CSCOf[T]) SortColumns() *CSCOf[T] {
	out := 0
	newPtr := make([]int64, a.Cols+1)
	for j := 0; j < a.Cols; j++ {
		lo, hi := int(a.ColPtr[j]), int(a.ColPtr[j+1])
		col := colSorter[T]{rows: a.RowIdx[lo:hi], vals: a.Val[lo:hi]}
		sort.Sort(col)
		// Compact duplicates, writing to position out (out <= lo always).
		for p := lo; p < hi; {
			r := a.RowIdx[p]
			v := a.Val[p]
			p++
			for p < hi && a.RowIdx[p] == r {
				v = AddVal(v, a.Val[p])
				p++
			}
			a.RowIdx[out] = r
			a.Val[out] = v
			out++
		}
		newPtr[j+1] = int64(out)
	}
	a.ColPtr = newPtr
	a.RowIdx = a.RowIdx[:out]
	a.Val = a.Val[:out]
	return a
}

type colSorter[T Number] struct {
	rows []Index
	vals []T
}

func (c colSorter[T]) Len() int           { return len(c.rows) }
func (c colSorter[T]) Less(i, j int) bool { return c.rows[i] < c.rows[j] }
func (c colSorter[T]) Swap(i, j int) {
	c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
	c.vals[i], c.vals[j] = c.vals[j], c.vals[i]
}

// Clone returns a deep copy.
func (a *CSCOf[T]) Clone() *CSCOf[T] {
	b := &CSCOf[T]{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: append([]int64(nil), a.ColPtr...),
		RowIdx: append([]Index(nil), a.RowIdx...),
		Val:    append([]T(nil), a.Val...),
	}
	return b
}

// Equal reports whether a and b represent the same matrix, comparing
// entries exactly. Columns are compared as sets, so entry order within
// a column does not matter; duplicates must already be merged.
func (a *CSCOf[T]) Equal(b *CSCOf[T]) bool {
	return a.EqualTol(b, 0)
}

// EqualTol is Equal with an absolute tolerance on values, compared in
// float64 (ToFloat64; exact for every T narrower than 53 bits of
// mantissa demand, and tol 0 degenerates to exact comparison).
func (a *CSCOf[T]) EqualTol(b *CSCOf[T], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	// Compare column by column through sorted copies.
	for j := 0; j < a.Cols; j++ {
		if a.ColNNZ(j) != b.ColNNZ(j) {
			return false
		}
		ar, av := sortedCol(a, j)
		br, bv := sortedCol(b, j)
		for p := range ar {
			if ar[p] != br[p] {
				return false
			}
			if av[p] != bv[p] && math.Abs(ToFloat64(av[p])-ToFloat64(bv[p])) > tol {
				return false
			}
		}
	}
	return true
}

func sortedCol[T Number](a *CSCOf[T], j int) ([]Index, []T) {
	rows, vals := a.ColRows(j), a.ColVals(j)
	if sort.SliceIsSorted(rows, func(i, k int) bool { return rows[i] < rows[k] }) {
		return rows, vals
	}
	r := append([]Index(nil), rows...)
	v := append([]T(nil), vals...)
	sort.Sort(colSorter[T]{rows: r, vals: v})
	return r, v
}

// ColRangeNNZ returns the number of entries of column j whose row index
// lies in [r1, r2). The column must be sorted by row index; the count is
// located with two binary searches as in the sliding-hash algorithm.
func (a *CSCOf[T]) ColRangeNNZ(j int, r1, r2 Index) int {
	lo, hi := a.colRange(j, r1, r2)
	return hi - lo
}

// ColRange returns the (rows, vals) sub-slices of sorted column j
// restricted to row indices in [r1, r2).
func (a *CSCOf[T]) ColRange(j int, r1, r2 Index) ([]Index, []T) {
	lo, hi := a.colRange(j, r1, r2)
	base := int(a.ColPtr[j])
	return a.RowIdx[base+lo : base+hi], a.Val[base+lo : base+hi]
}

func (a *CSCOf[T]) colRange(j int, r1, r2 Index) (lo, hi int) {
	rows := a.ColRows(j)
	lo = sort.Search(len(rows), func(p int) bool { return rows[p] >= r1 })
	hi = sort.Search(len(rows), func(p int) bool { return rows[p] >= r2 })
	return lo, hi
}

// Triples returns all stored entries in column-major order.
func (a *CSCOf[T]) Triples() []TripleOf[T] {
	ts := make([]TripleOf[T], 0, a.NNZ())
	for j := 0; j < a.Cols; j++ {
		rows, vals := a.ColRows(j), a.ColVals(j)
		for p := range rows {
			ts = append(ts, TripleOf[T]{Row: rows[p], Col: Index(j), Val: vals[p]})
		}
	}
	return ts
}

// ColSplit splits a into k column blocks of near-equal width (the
// paper's construction of k SpKAdd inputs from one m x n matrix: each
// piece keeps the full row dimension and n/k of the columns, re-indexed
// from 0). Every piece is m x ceil(n/k): the last pieces may have
// fewer populated columns, or none when k exceeds n.
func (a *CSCOf[T]) ColSplit(k int) []*CSCOf[T] {
	if k <= 0 {
		return nil
	}
	width := (a.Cols + k - 1) / k
	if width == 0 {
		width = 1
	}
	pieces := make([]*CSCOf[T], 0, k)
	for start := 0; start < a.Cols; start += width {
		end := start + width
		if end > a.Cols {
			end = a.Cols
		}
		lo, hi := a.ColPtr[start], a.ColPtr[end]
		p := &CSCOf[T]{
			Rows:   a.Rows,
			Cols:   width,
			ColPtr: make([]int64, width+1),
			RowIdx: append([]Index(nil), a.RowIdx[lo:hi]...),
			Val:    append([]T(nil), a.Val[lo:hi]...),
		}
		for j := start; j < end; j++ {
			p.ColPtr[j-start+1] = a.ColPtr[j+1] - lo
		}
		for j := end - start; j < width; j++ {
			p.ColPtr[j+1] = p.ColPtr[j]
		}
		pieces = append(pieces, p)
	}
	for len(pieces) < k {
		pieces = append(pieces, NewCSCOf[T](a.Rows, width, 0))
	}
	return pieces
}

// ColView returns the columns [c0, c1) of a as a Rows x (c1-c0) matrix
// sharing a's entry storage: RowIdx and Val are capacity-clipped
// sub-slices of a's arrays, so no nonzeros are copied — only the
// (c1-c0)+1 rebased ColPtr is allocated. Mutating the view's entries
// mutates a, and vice versa; callers that need isolation use ColSplit
// or Block instead. ColView is the slicing primitive of the sharded
// accumulation pool: Push carves each incoming matrix into per-shard
// views without touching the nnz payload.
func (a *CSCOf[T]) ColView(c0, c1 int) *CSCOf[T] {
	if c0 < 0 || c1 > a.Cols || c0 > c1 {
		panic("matrix: ColView range out of bounds")
	}
	lo, hi := a.ColPtr[c0], a.ColPtr[c1]
	ptr := make([]int64, c1-c0+1)
	for j := range ptr {
		ptr[j] = a.ColPtr[c0+j] - lo
	}
	return &CSCOf[T]{
		Rows:   a.Rows,
		Cols:   c1 - c0,
		ColPtr: ptr,
		RowIdx: a.RowIdx[lo:hi:hi],
		Val:    a.Val[lo:hi:hi],
	}
}

// String returns a short human-readable summary, not the full contents.
func (a *CSCOf[T]) String() string {
	return fmt.Sprintf("CSC{%dx%d, nnz=%d}", a.Rows, a.Cols, a.NNZ())
}
