package summa

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

func TestSummaMatchesSerial(t *testing.T) {
	a := generate.ProteinLike(120, 10, 6, 1)
	b := generate.ProteinLike(120, 10, 6, 2)
	want := matrix.ReferenceMul(a, b)
	for _, g := range []int{1, 2, 3, 4} {
		got, rep, err := Run(a, b, Config{Grid: g, SpKAdd: core.Hash, SortIntermediates: false})
		if err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("g=%d: invalid output: %v", g, err)
		}
		// EqualTol compares sorted copies, so sortedness needs its
		// own check.
		if !got.IsColumnSorted() {
			t.Errorf("g=%d: product columns are not sorted", g)
		}
		if !got.EqualTol(want, 1e-9) {
			t.Errorf("g=%d: SUMMA product differs from serial reference", g)
		}
		if g > 1 && rep.IntermediateNNZ < int64(got.NNZ()) {
			t.Errorf("g=%d: intermediate nnz %d below output nnz %d", g, rep.IntermediateNNZ, got.NNZ())
		}
	}
}

// TestSummaThreadCountParity: the thread count inside a process must
// not change the product, array for array.
func TestSummaThreadCountParity(t *testing.T) {
	// Uniform operands with random values: most product entries sum
	// partials of several stages, so a change of summation order shows
	// in their bits.
	a := generate.ER(generate.Opts{Rows: 150, Cols: 150, NNZPerCol: 8, Seed: 11})
	b := generate.ER(generate.Opts{Rows: 150, Cols: 150, NNZPerCol: 8, Seed: 12})
	rng := rand.New(rand.NewSource(13))
	for _, m := range []*matrix.CSC{a, b} {
		for i := range m.Val {
			m.Val[i] = rng.Float64()
		}
	}
	for _, cfg := range []Config{
		{Grid: 3, SpKAdd: core.Hash},
		{Grid: 3, SpKAdd: core.Hash, SortIntermediates: true},
		{Grid: 4, SpKAdd: core.Heap, SortIntermediates: true},
	} {
		cfg.Threads = 1
		want, _, err := Run(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{2, 3} {
			cfg.Threads = threads
			got, _, err := Run(a, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(want.ColPtr, got.ColPtr) || !slices.Equal(want.RowIdx, got.RowIdx) || !slices.Equal(want.Val, got.Val) {
				t.Errorf("%+v: product differs from the Threads 1 product", cfg)
			}
		}
	}
}

func TestSummaHeapNeedsSortedIntermediates(t *testing.T) {
	a := generate.ProteinLike(80, 8, 5, 3)
	b := generate.ProteinLike(80, 8, 5, 4)
	want := matrix.ReferenceMul(a, b)

	got, _, err := Run(a, b, Config{Grid: 2, SpKAdd: core.Heap, SortIntermediates: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualTol(want, 1e-9) {
		t.Error("heap SUMMA wrong result")
	}

	// Heap on unsorted intermediates must surface the sorted-input error.
	if _, _, err := Run(a, b, Config{Grid: 2, SpKAdd: core.Heap, SortIntermediates: false}); err == nil {
		t.Error("heap SpKAdd accepted unsorted intermediates")
	}
}

func TestSummaAllVariants(t *testing.T) {
	// The three Fig 6 configurations must all produce the same product.
	a := generate.ProteinLike(100, 10, 6, 5)
	b := generate.ProteinLike(100, 10, 6, 6)
	want := matrix.ReferenceMul(a, b)
	cases := []Config{
		{Grid: 2, SpKAdd: core.Heap, SortIntermediates: true},
		{Grid: 2, SpKAdd: core.Hash, SortIntermediates: true},
		{Grid: 2, SpKAdd: core.Hash, SortIntermediates: false},
	}
	for _, cfg := range cases {
		got, rep, err := Run(a, b, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !got.IsColumnSorted() {
			t.Errorf("%+v: product columns are not sorted", cfg)
		}
		if !got.EqualTol(want, 1e-9) {
			t.Errorf("%+v: wrong product", cfg)
		}
		if rep.LocalMultiplySum <= 0 || rep.SpKAddSum <= 0 {
			t.Errorf("%+v: phases not timed: %+v", cfg, rep)
		}
		if rep.LocalMultiplyMax > rep.LocalMultiplySum || rep.SpKAddMax > rep.SpKAddSum {
			t.Errorf("%+v: max exceeds sum", cfg)
		}
	}
}

func TestSummaErrors(t *testing.T) {
	a := matrix.NewCSC(4, 5, 0)
	b := matrix.NewCSC(6, 3, 0)
	if _, _, err := Run(a, b, Config{Grid: 2}); !errors.Is(err, core.ErrDimMismatch) {
		t.Errorf("dimension mismatch: got %v, want core.ErrDimMismatch", err)
	}
	sq := matrix.NewCSC(4, 4, 0)
	if _, _, err := Run(sq, sq, Config{Grid: 0}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("zero grid: got %v, want ErrBadGrid", err)
	}
	unsorted := matrix.FromTriples(4, 4, []matrix.Triple{{Row: 1, Col: 0, Val: 1}, {Row: 3, Col: 0, Val: 2}})
	unsorted.RowIdx[0], unsorted.RowIdx[1] = unsorted.RowIdx[1], unsorted.RowIdx[0]
	if _, _, err := Run(unsorted, sq, Config{Grid: 2}); !errors.Is(err, core.ErrUnsortedInput) {
		t.Errorf("unsorted operand: got %v, want core.ErrUnsortedInput", err)
	}
}

func TestSummaRectangular(t *testing.T) {
	// Non-square operands with dimensions not divisible by the grid.
	a := generate.ER(generate.Opts{Rows: 53, Cols: 37, NNZPerCol: 5, Seed: 7})
	b := generate.ER(generate.Opts{Rows: 37, Cols: 41, NNZPerCol: 4, Seed: 8})
	want := matrix.ReferenceMul(a, b)
	got, _, err := Run(a, b, Config{Grid: 3, SpKAdd: core.Hash})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualTol(want, 1e-9) {
		t.Error("rectangular SUMMA differs from reference")
	}
}

func TestCommVolumeAccounting(t *testing.T) {
	a := generate.ER(generate.Opts{Rows: 64, Cols: 64, NNZPerCol: 4, Seed: 9})
	b := generate.ER(generate.Opts{Rows: 64, Cols: 64, NNZPerCol: 4, Seed: 10})
	_, rep1, err := Run(a, b, Config{Grid: 1, SpKAdd: core.Hash})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CommVolumeBytes != 0 {
		t.Errorf("single process should broadcast nothing, got %d bytes", rep1.CommVolumeBytes)
	}
	_, rep2, err := Run(a, b, Config{Grid: 2, SpKAdd: core.Hash})
	if err != nil {
		t.Fatal(err)
	}
	_, rep4, err := Run(a, b, Config{Grid: 4, SpKAdd: core.Hash})
	if err != nil {
		t.Fatal(err)
	}
	// Volume grows with the grid: each block reaches g-1 peers.
	if !(rep4.CommVolumeBytes > rep2.CommVolumeBytes && rep2.CommVolumeBytes > 0) {
		t.Errorf("comm volume not increasing with grid: g2=%d g4=%d",
			rep2.CommVolumeBytes, rep4.CommVolumeBytes)
	}
	// Lower bound: at g=2 every entry of A and B crosses the wire once.
	if min := int64(a.NNZ()+b.NNZ()) * 12; rep2.CommVolumeBytes < min {
		t.Errorf("g=2 volume %d below entry lower bound %d", rep2.CommVolumeBytes, min)
	}
}
