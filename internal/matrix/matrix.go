// Package matrix provides the sparse matrix formats used throughout the
// SpKAdd library: compressed sparse column (CSC, the paper's format),
// coordinate (COO) for assembly, and a small dense matrix used as a
// trivially-correct reference in tests.
//
// All matrices store 32-bit row/column indices. The value axis is a
// type parameter constrained by Number (float32, float64, int32,
// int64, bool); the float64 instantiation — the paper's element type —
// keeps the original unsuffixed names (CSC, Triple, Entry, ...) as
// aliases, so float64 code reads exactly as it did before the value
// axis became generic. With float64 values one (rowid, value) pair
// occupies 12 bytes — the entry size the paper uses when relating
// hash-table sizes to cache sizes; float32 halves the value traffic to
// 8 bytes per entry.
package matrix

// Index is the row/column index type. The paper assumes 32-bit indices.
type Index = int32

// Value is the default numeric value type of matrix entries — the
// float64 the paper's experiments use. The unsuffixed type names
// (CSC, COO, Triple, ...) alias the Value instantiations of their
// generic forms.
type Value = float64

// Number constrains the value axis: the element types every matrix
// format, kernel and monoid instantiation supports. bool is the
// structural / reachability element type; it supports storage,
// comparison and monoid combines (Any) but not the Plus fast path.
type Number interface {
	float32 | float64 | int32 | int64 | bool
}

// Arith is the arithmetic subset of Number: the element types with
// +, * and ordering — everything Plus, AddScaled coefficients and the
// inlined += fast-path kernels need. bool is deliberately excluded:
// boolean matrices must select an explicit monoid (Any).
type Arith interface {
	float32 | float64 | int32 | int64
}

// TripleOf is a single (row, col, value) coordinate entry.
type TripleOf[T Number] struct {
	Row, Col Index
	Val      T
}

// Triple is the float64 coordinate entry.
type Triple = TripleOf[Value]

// EntryOf is a (row, value) pair within one column. Columns of CSC
// matrices are logically lists of entries, matching the (rowid, val)
// tuples of the paper's Figure 1.
type EntryOf[T Number] struct {
	Row Index
	Val T
}

// Entry is the float64 column entry.
type Entry = EntryOf[Value]

// The scalar helpers below give the non-hot generic code (reference
// implementations, duplicate folding in SortColumns, tolerance
// comparison) one place that knows how "+", "*", zero and float
// conversion behave per element type. bool treats + as OR, * as AND
// and zero as false — the semiring convention of boolean matrix
// algebra. The hot kernels never call these: the Plus fast path runs
// Arith-constrained inlined loops and the generic path runs monoid
// combine functions.

// AddVal returns a+b (bool: a OR b).
func AddVal[T Number](a, b T) T {
	switch x := any(&a).(type) {
	case *float32:
		*x += any(b).(float32)
	case *float64:
		*x += any(b).(float64)
	case *int32:
		*x += any(b).(int32)
	case *int64:
		*x += any(b).(int64)
	case *bool:
		*x = *x || any(b).(bool)
	}
	return a
}

// MulVal returns a*b (bool: a AND b).
func MulVal[T Number](a, b T) T {
	switch x := any(&a).(type) {
	case *float32:
		*x *= any(b).(float32)
	case *float64:
		*x *= any(b).(float64)
	case *int32:
		*x *= any(b).(int32)
	case *int64:
		*x *= any(b).(int64)
	case *bool:
		*x = *x && any(b).(bool)
	}
	return a
}

// IsZero reports whether v is the additive zero of T (bool: false).
func IsZero[T Number](v T) bool {
	var z T
	return v == z
}

// ToFloat64 converts v to float64 (bool: false→0, true→1).
func ToFloat64[T Number](v T) float64 {
	switch x := any(v).(type) {
	case float32:
		return float64(x)
	case float64:
		return x
	case int32:
		return float64(x)
	case int64:
		return float64(x)
	case bool:
		if x {
			return 1
		}
	}
	return 0
}

// FromFloat64 converts v to T (bool: v != 0), truncating toward zero
// for the integer types exactly like a Go conversion.
func FromFloat64[T Number](v float64) T {
	var z T
	switch x := any(&z).(type) {
	case *float32:
		*x = float32(v)
	case *float64:
		*x = v
	case *int32:
		*x = int32(v)
	case *int64:
		*x = int64(v)
	case *bool:
		*x = v != 0
	}
	return z
}

// Convert re-types a float64 matrix's values to T, element by element
// via FromFloat64 (bool: nonzero→true). The structure (dimensions,
// ColPtr, RowIdx) is deep-copied, so the result shares nothing with a.
// This is the bridge from the float64-only generators and MatrixMarket
// reader into the other instantiations — benchmarks and examples
// convert generated inputs rather than duplicating the generators per
// type.
func Convert[T Number](a *CSC) *CSCOf[T] {
	out := &CSCOf[T]{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: append([]int64(nil), a.ColPtr...),
		RowIdx: append([]Index(nil), a.RowIdx...),
		Val:    make([]T, len(a.Val)),
	}
	for p, v := range a.Val {
		out.Val[p] = FromFloat64[T](v)
	}
	return out
}
