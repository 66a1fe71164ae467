package matrix

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket checks the parser never panics and that
// anything it accepts is a structurally valid matrix that round-trips.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n3 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% comment\n\n1 1 0\n")
	f.Add("garbage")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n10 10 -1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n10 10 1\n4294967297 1 5.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n-3 10 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("accepted invalid matrix: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteMatrixMarket(&buf, a); werr != nil {
			t.Fatalf("cannot re-serialize accepted matrix: %v", werr)
		}
		back, rerr := ReadMatrixMarket(&buf)
		if rerr != nil {
			t.Fatalf("cannot re-parse own output: %v", rerr)
		}
		if back.Rows != a.Rows || back.Cols != a.Cols || back.NNZ() != a.NNZ() {
			t.Fatal("round trip changed shape")
		}
	})
}

// FuzzSortColumns checks column sorting/merging on arbitrary raw CSC
// payloads: for any structurally valid input, the result must be
// sorted, valid and preserve per-position sums.
func FuzzSortColumns(f *testing.F) {
	f.Add(uint16(4), uint16(2), []byte{0, 1, 2, 3, 1, 1})
	f.Fuzz(func(t *testing.T, rows16, cols16 uint16, data []byte) {
		rows := int(rows16%64) + 1
		cols := int(cols16%8) + 1
		coo := NewCOO(rows, cols)
		for i := 0; i+1 < len(data); i += 2 {
			coo.Append(Index(int(data[i])%rows), Index(int(data[i+1])%cols), float64(i+1))
		}
		// Build an unsorted CSC by skipping the sort step of ToCSC.
		n := cols
		colCount := make([]int64, n+1)
		for _, tr := range coo.Entries {
			colCount[tr.Col+1]++
		}
		for j := 0; j < n; j++ {
			colCount[j+1] += colCount[j]
		}
		a := &CSC{Rows: rows, Cols: cols, ColPtr: colCount,
			RowIdx: make([]Index, len(coo.Entries)), Val: make([]Value, len(coo.Entries))}
		next := append([]int64(nil), a.ColPtr[:n]...)
		for _, tr := range coo.Entries {
			p := next[tr.Col]
			next[tr.Col]++
			a.RowIdx[p] = tr.Row
			a.Val[p] = tr.Val
		}
		want := NewDense(rows, cols).AddCSC(a)

		a.SortColumns()
		if err := a.Validate(); err != nil {
			t.Fatalf("SortColumns produced invalid matrix: %v", err)
		}
		if !a.IsColumnSorted() {
			t.Fatal("SortColumns left unsorted columns")
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if a.At(i, j) != want.At(i, j) {
					t.Fatalf("value changed at (%d,%d)", i, j)
				}
			}
		}
	})
}
