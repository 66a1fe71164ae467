package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCOO(rng *rand.Rand, rows, cols, nnz int) *COO {
	c := NewCOO(rows, cols)
	for i := 0; i < nnz; i++ {
		c.Append(Index(rng.Intn(rows)), Index(rng.Intn(cols)), float64(rng.Intn(9)+1))
	}
	return c
}

func TestCOOToCSCBasic(t *testing.T) {
	c := NewCOO(4, 3)
	c.Append(2, 0, 1)
	c.Append(0, 0, 2)
	c.Append(2, 0, 3) // duplicate of (2,0): must merge to 4
	c.Append(3, 2, 5)
	a := c.ToCSC()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", a.NNZ())
	}
	if got := a.At(2, 0); got != 4 {
		t.Errorf("At(2,0) = %v, want 4", got)
	}
	if got := a.At(0, 0); got != 2 {
		t.Errorf("At(0,0) = %v, want 2", got)
	}
	if got := a.At(3, 2); got != 5 {
		t.Errorf("At(3,2) = %v, want 5", got)
	}
	if got := a.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
	if !a.IsColumnSorted() {
		t.Error("ToCSC output should be column sorted")
	}
}

func TestCSCValidateRejectsMalformed(t *testing.T) {
	good := FromTriples(3, 3, []Triple{{0, 0, 1}, {2, 1, 2}})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}

	bad := good.Clone()
	bad.ColPtr[1] = 99
	if err := bad.Validate(); err == nil {
		t.Error("non-monotone/overflowing ColPtr accepted")
	}

	bad = good.Clone()
	bad.RowIdx[0] = 7
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range row index accepted")
	}

	bad = good.Clone()
	bad.ColPtr = bad.ColPtr[:2]
	if err := bad.Validate(); err == nil {
		t.Error("short ColPtr accepted")
	}

	bad = good.Clone()
	bad.Val = bad.Val[:1]
	if err := bad.Validate(); err == nil {
		t.Error("mismatched Val length accepted")
	}

	bad = good.Clone()
	bad.ColPtr[0] = 1
	if err := bad.Validate(); err == nil {
		t.Error("ColPtr[0] != 0 accepted")
	}
}

func TestSortColumnsMergesDuplicates(t *testing.T) {
	a := &CSC{
		Rows:   5,
		Cols:   2,
		ColPtr: []int64{0, 4, 6},
		RowIdx: []Index{3, 1, 3, 0, 4, 4},
		Val:    []Value{1, 2, 10, 3, 5, 6},
	}
	a.SortColumns()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsColumnSorted() {
		t.Fatal("columns not sorted")
	}
	if a.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", a.NNZ())
	}
	if got := a.At(3, 0); got != 11 {
		t.Errorf("At(3,0) = %v, want 11", got)
	}
	if got := a.At(4, 1); got != 11 {
		t.Errorf("At(4,1) = %v, want 11", got)
	}
}

func TestColRange(t *testing.T) {
	a := FromTriples(10, 1, []Triple{{1, 0, 1}, {3, 0, 2}, {5, 0, 3}, {9, 0, 4}})
	rows, vals := a.ColRange(0, 3, 9)
	if len(rows) != 2 || rows[0] != 3 || rows[1] != 5 {
		t.Fatalf("ColRange rows = %v, want [3 5]", rows)
	}
	if vals[0] != 2 || vals[1] != 3 {
		t.Fatalf("ColRange vals = %v, want [2 3]", vals)
	}
	if n := a.ColRangeNNZ(0, 0, 2); n != 1 {
		t.Errorf("ColRangeNNZ(0,2) = %d, want 1", n)
	}
	if n := a.ColRangeNNZ(0, 0, 10); n != 4 {
		t.Errorf("ColRangeNNZ full = %d, want 4", n)
	}
	if n := a.ColRangeNNZ(0, 6, 9); n != 0 {
		t.Errorf("ColRangeNNZ empty = %d, want 0", n)
	}
}

func TestColSplitCoversAllEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCOO(rng, 20, 12, 100).ToCSC()
	for _, k := range []int{1, 2, 3, 4, 5, 12, 20} {
		pieces := a.ColSplit(k)
		if len(pieces) != k {
			t.Fatalf("k=%d: got %d pieces", k, len(pieces))
		}
		total := 0
		for _, p := range pieces {
			if err := p.Validate(); err != nil {
				t.Fatalf("k=%d: invalid piece: %v", k, err)
			}
			if p.Rows != a.Rows {
				t.Fatalf("k=%d: piece rows %d != %d", k, p.Rows, a.Rows)
			}
			total += p.NNZ()
		}
		if total != a.NNZ() {
			t.Fatalf("k=%d: pieces hold %d entries, want %d", k, total, a.NNZ())
		}
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := FromTriples(4, 4, []Triple{{0, 0, 1}, {2, 3, 2}})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Val[0] = 99
	if a.Equal(b) {
		t.Error("value change not detected")
	}
	c := FromTriples(4, 4, []Triple{{0, 0, 1}, {3, 3, 2}})
	if a.Equal(c) {
		t.Error("position change not detected")
	}
	d := FromTriples(5, 4, []Triple{{0, 0, 1}, {2, 3, 2}})
	if a.Equal(d) {
		t.Error("dimension change not detected")
	}
}

func TestEqualIgnoresColumnOrder(t *testing.T) {
	sorted := FromTriples(5, 1, []Triple{{1, 0, 1}, {4, 0, 2}})
	unsorted := &CSC{Rows: 5, Cols: 1, ColPtr: []int64{0, 2}, RowIdx: []Index{4, 1}, Val: []Value{2, 1}}
	if !sorted.Equal(unsorted) {
		t.Error("Equal should compare columns as sets")
	}
}

func TestQuickCOOToCSCPreservesSums(t *testing.T) {
	// Property: for random COO inputs, the CSC conversion preserves the
	// per-position sum of duplicates.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := rng.Intn(16)+1, rng.Intn(16)+1
		coo := randomCOO(rng, rows, cols, rng.Intn(100))
		a := coo.ToCSC()
		if err := a.Validate(); err != nil {
			return false
		}
		want := NewDense(rows, cols)
		for _, e := range coo.Entries {
			want.Data[int(e.Row)*cols+int(e.Col)] += e.Val
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if a.At(i, j) != want.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyMatrices(t *testing.T) {
	e := NewCSC(0, 0, 0)
	if err := e.Validate(); err != nil {
		t.Errorf("empty matrix invalid: %v", err)
	}
	e2 := NewCSC(5, 3, 0)
	if err := e2.Validate(); err != nil {
		t.Errorf("zero-nnz matrix invalid: %v", err)
	}
	if !e2.IsColumnSorted() {
		t.Error("empty columns should count as sorted")
	}
}

func TestColViewMatchesBlock(t *testing.T) {
	a := FromTriples(6, 8, []Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 3, Col: 0, Val: 2},
		{Row: 1, Col: 2, Val: 3}, {Row: 5, Col: 2, Val: 4},
		{Row: 2, Col: 5, Val: 5}, {Row: 4, Col: 7, Val: 6},
	})
	for _, r := range [][2]int{{0, 8}, {0, 3}, {2, 6}, {5, 5}, {8, 8}, {0, 0}} {
		c0, c1 := r[0], r[1]
		got := a.ColView(c0, c1)
		if err := got.Validate(); err != nil {
			t.Fatalf("ColView(%d,%d) invalid: %v", c0, c1, err)
		}
		want := a.Block(0, a.Rows, c0, c1)
		if !got.Equal(want) {
			t.Errorf("ColView(%d,%d) differs from Block", c0, c1)
		}
	}
}

func TestColViewSharesStorage(t *testing.T) {
	a := FromTriples(4, 4, []Triple{{Row: 1, Col: 2, Val: 7}})
	v := a.ColView(2, 4)
	if v.NNZ() != 1 || v.At(1, 0) != 7 {
		t.Fatalf("view contents wrong: %v", v)
	}
	// Zero-copy means shared entries: mutating the view mutates a.
	v.Val[0] = 9
	if a.At(1, 2) != 9 {
		t.Error("view does not share value storage with its parent")
	}
	// The view's slices are capacity-clipped: appending to the view
	// must not scribble past its column range into the parent.
	v2 := a.ColView(0, 3)
	v2.RowIdx = append(v2.RowIdx, 0)
	v2.Val = append(v2.Val, 1)
	if a.At(1, 2) != 9 {
		t.Error("append to view leaked into parent storage")
	}
}

func TestColViewBounds(t *testing.T) {
	a := NewCSC(3, 3, 0)
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ColView(%d,%d) did not panic", r[0], r[1])
				}
			}()
			a.ColView(r[0], r[1])
		}()
	}
}
