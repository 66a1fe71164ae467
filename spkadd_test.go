package spkadd_test

import (
	"bytes"
	"errors"
	"testing"

	"spkadd"
)

func TestPublicAddQuickPath(t *testing.T) {
	k := 8
	as := make([]*spkadd.Matrix, k)
	for i := range as {
		as[i] = spkadd.RandomER(1000, 32, 16, uint64(i+1))
	}
	sum, err := spkadd.Add(as, spkadd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot-check one position against manual accumulation.
	var want spkadd.Value
	for _, a := range as {
		want += a.At(int(as[0].ColRows(0)[0]), 0)
	}
	if got := sum.At(int(as[0].ColRows(0)[0]), 0); got != want {
		t.Errorf("sum entry = %v, want %v", got, want)
	}
}

func TestPublicAlgorithmsExposeCorrectly(t *testing.T) {
	as := []*spkadd.Matrix{
		spkadd.RandomRMAT(500, 20, 8, 1),
		spkadd.RandomRMAT(500, 20, 8, 2),
	}
	ref, err := spkadd.Add(as, spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []spkadd.Algorithm{
		spkadd.TwoWayIncremental, spkadd.TwoWayTree, spkadd.MapIncremental,
		spkadd.MapTree, spkadd.Heap, spkadd.SPA, spkadd.SlidingHash, spkadd.Auto,
	} {
		got, err := spkadd.Add(as, spkadd.Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(ref) {
			t.Errorf("%v disagrees with Hash", alg)
		}
	}
}

func TestPublicErrors(t *testing.T) {
	if _, err := spkadd.Add(nil, spkadd.Options{}); !errors.Is(err, spkadd.ErrNoInputs) {
		t.Error("ErrNoInputs not surfaced")
	}
	a := spkadd.FromTriples(2, 2, nil)
	b := spkadd.FromTriples(3, 2, nil)
	if _, err := spkadd.Add([]*spkadd.Matrix{a, b}, spkadd.Options{}); !errors.Is(err, spkadd.ErrDimMismatch) {
		t.Error("ErrDimMismatch not surfaced")
	}
}

func TestPublicMultiplyAndSumma(t *testing.T) {
	a := spkadd.RandomER(60, 60, 4, 3)
	b := spkadd.RandomER(60, 60, 4, 4)
	direct, err := spkadd.Multiply(a, b, spkadd.MulOptions{SortOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	viaSumma, rep, err := spkadd.RunSumma(a, b, spkadd.SummaConfig{Grid: 2, SpKAdd: spkadd.Hash})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.EqualTol(viaSumma, 1e-9) {
		t.Error("SUMMA product differs from direct multiply")
	}
	if rep.SpKAddSum <= 0 {
		t.Error("SUMMA report not populated")
	}
}

// TestPublicMultiplyErrorsClassify: Multiply and RunSumma failures
// match the sentinels spkadd exports.
func TestPublicMultiplyErrorsClassify(t *testing.T) {
	a := spkadd.FromTriples(3, 4, nil)
	b := spkadd.FromTriples(5, 2, nil)
	if _, err := spkadd.Multiply(a, b, spkadd.MulOptions{}); !errors.Is(err, spkadd.ErrDimMismatch) {
		t.Errorf("Multiply 3x4 * 5x2: got %v, want ErrDimMismatch", err)
	}
	if _, _, err := spkadd.RunSumma(a, b, spkadd.SummaConfig{Grid: 2}); !errors.Is(err, spkadd.ErrDimMismatch) {
		t.Errorf("RunSumma 3x4 * 5x2: got %v, want ErrDimMismatch", err)
	}
	unsorted := spkadd.FromTriples(4, 4, []spkadd.Triple{{Row: 1, Col: 0, Val: 1}, {Row: 3, Col: 0, Val: 2}})
	unsorted.RowIdx[0], unsorted.RowIdx[1] = unsorted.RowIdx[1], unsorted.RowIdx[0]
	sq := spkadd.FromTriples(4, 4, nil)
	if _, _, err := spkadd.RunSumma(unsorted, sq, spkadd.SummaConfig{Grid: 2}); !errors.Is(err, spkadd.ErrUnsortedInput) {
		t.Errorf("RunSumma on an unsorted operand: got %v, want ErrUnsortedInput", err)
	}
}

func TestPublicMatrixMarketRoundTrip(t *testing.T) {
	a := spkadd.RandomER(40, 10, 5, 5)
	var buf bytes.Buffer
	if err := spkadd.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := spkadd.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(back) {
		t.Error("round trip changed matrix")
	}
}

func TestPublicCOOAssembly(t *testing.T) {
	coo := spkadd.NewCOO(4, 4)
	coo.Append(0, 0, 1)
	coo.Append(0, 0, 2) // duplicate accumulates
	coo.Append(3, 3, 5)
	m := coo.ToCSC()
	if m.At(0, 0) != 3 || m.At(3, 3) != 5 {
		t.Error("COO assembly wrong")
	}
}

func TestPublicStats(t *testing.T) {
	as := []*spkadd.Matrix{
		spkadd.RandomER(300, 16, 8, 6),
		spkadd.RandomER(300, 16, 8, 7),
	}
	var st spkadd.OpStats
	_, pt, err := spkadd.AddTimed(as, spkadd.Options{Algorithm: spkadd.Hash, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.HashProbes.Load() == 0 {
		t.Error("stats not collected")
	}
	if pt.Total() <= 0 {
		t.Error("timings not collected")
	}
}
