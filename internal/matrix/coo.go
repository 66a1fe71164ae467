package matrix

import "fmt"

// COOOf is a sparse matrix in coordinate (triple) format over element
// type T. Entries may be unordered and may contain duplicates; ToCSC
// merges duplicates by summation (bool: OR), matching the usual
// assembly semantics (e.g. finite-element assembly accumulates
// overlapping local contributions).
type COOOf[T Number] struct {
	Rows, Cols int
	Entries    []TripleOf[T]
}

// COO is the float64 coordinate matrix.
type COO = COOOf[Value]

// NewCOO returns an empty float64 rows x cols coordinate matrix.
func NewCOO(rows, cols int) *COO {
	return NewCOOOf[Value](rows, cols)
}

// NewCOOOf returns an empty rows x cols coordinate matrix over T.
func NewCOOOf[T Number](rows, cols int) *COOOf[T] {
	return &COOOf[T]{Rows: rows, Cols: cols}
}

// Append adds one entry. It does not check ranges; Validate does.
func (c *COOOf[T]) Append(i, j Index, v T) {
	c.Entries = append(c.Entries, TripleOf[T]{Row: i, Col: j, Val: v})
}

// NNZ returns the number of stored triples (duplicates counted).
func (c *COOOf[T]) NNZ() int { return len(c.Entries) }

// Validate checks that all coordinates are in range.
func (c *COOOf[T]) Validate() error {
	for p, t := range c.Entries {
		if t.Row < 0 || int(t.Row) >= c.Rows || t.Col < 0 || int(t.Col) >= c.Cols {
			return fmt.Errorf("%w: entry %d (%d,%d) out of range %dx%d", ErrInvalid, p, t.Row, t.Col, c.Rows, c.Cols)
		}
	}
	return nil
}

// ToCSC converts to CSC with sorted columns, summing duplicates.
func (c *COOOf[T]) ToCSC() *CSCOf[T] {
	n := c.Cols
	colCount := make([]int64, n+1)
	for _, t := range c.Entries {
		colCount[t.Col+1]++
	}
	for j := 0; j < n; j++ {
		colCount[j+1] += colCount[j]
	}
	a := &CSCOf[T]{
		Rows:   c.Rows,
		Cols:   n,
		ColPtr: colCount,
		RowIdx: make([]Index, len(c.Entries)),
		Val:    make([]T, len(c.Entries)),
	}
	next := append([]int64(nil), a.ColPtr[:n]...)
	for _, t := range c.Entries {
		p := next[t.Col]
		next[t.Col]++
		a.RowIdx[p] = t.Row
		a.Val[p] = t.Val
	}
	return a.SortColumns()
}

// FromTriples builds a sorted, duplicate-merged float64 CSC directly.
// A plain function (not FromTriplesOf[Value]) so a nil triple slice
// still resolves the element type.
func FromTriples(rows, cols int, ts []Triple) *CSC {
	return FromTriplesOf(rows, cols, ts)
}

// FromTriplesOf builds a sorted, duplicate-merged CSC directly.
func FromTriplesOf[T Number](rows, cols int, ts []TripleOf[T]) *CSCOf[T] {
	c := &COOOf[T]{Rows: rows, Cols: cols, Entries: ts}
	return c.ToCSC()
}
