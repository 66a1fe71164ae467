package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// fig1Inputs builds the four single-column matrices of the paper's
// Figure 1(a).
func fig1Inputs() []*matrix.CSC {
	cols := [][]matrix.Entry{
		{{Row: 1, Val: 3}, {Row: 3, Val: 2}, {Row: 6, Val: 1}},
		{{Row: 0, Val: 2}, {Row: 3, Val: 1}, {Row: 5, Val: 3}},
		{{Row: 5, Val: 2}, {Row: 7, Val: 1}},
		{{Row: 1, Val: 2}, {Row: 6, Val: 1}, {Row: 7, Val: 3}},
	}
	as := make([]*matrix.CSC, len(cols))
	for i, c := range cols {
		var ts []matrix.Triple
		for _, e := range c {
			ts = append(ts, matrix.Triple{Row: e.Row, Col: 0, Val: e.Val})
		}
		as[i] = matrix.FromTriples(8, 1, ts)
	}
	return as
}

// fig1Want is B(:,j) from Figure 1(a):
// (0,2),(1,5),(3,3),(5,5),(6,2),(7,4).
func fig1Want() *matrix.CSC {
	return matrix.FromTriples(8, 1, []matrix.Triple{
		{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 0, Val: 5},
		{Row: 3, Col: 0, Val: 3}, {Row: 5, Col: 0, Val: 5},
		{Row: 6, Col: 0, Val: 2}, {Row: 7, Col: 0, Val: 4},
	})
}

func TestPaperFig1AllAlgorithms(t *testing.T) {
	as := fig1Inputs()
	want := fig1Want()
	for _, alg := range Algorithms {
		got, err := Add(as, Options{Algorithm: alg, SortedOutput: true, Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: result differs from the paper's Figure 1 output", alg)
		}
	}
}

func TestPaperFig1SlidingForced(t *testing.T) {
	// Force multiple sliding parts on the tiny example.
	as := fig1Inputs()
	got, err := Add(as, Options{Algorithm: SlidingHash, SortedOutput: true, MaxTableEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(fig1Want()) {
		t.Error("sliding hash with forced partitioning differs from Figure 1 output")
	}
}

func erInputs(k, rows, cols, d int, seed uint64) []*matrix.CSC {
	return generate.ERCollection(k, generate.Opts{Rows: rows, Cols: cols, NNZPerCol: d, Seed: seed})
}

func TestAllAlgorithmsAgreeER(t *testing.T) {
	as := erInputs(8, 500, 40, 12, 1)
	want := matrix.ReferenceAdd(as)
	for _, alg := range Algorithms {
		for _, threads := range []int{1, 3} {
			got, err := Add(as, Options{Algorithm: alg, Threads: threads, SortedOutput: true})
			if err != nil {
				t.Fatalf("%v/T=%d: %v", alg, threads, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%v/T=%d: invalid output: %v", alg, threads, err)
			}
			if !got.Equal(want) {
				t.Errorf("%v/T=%d: result differs from dense reference", alg, threads)
			}
			if !got.IsColumnSorted() {
				t.Errorf("%v/T=%d: SortedOutput violated", alg, threads)
			}
		}
	}
}

func TestAllAlgorithmsAgreeRMAT(t *testing.T) {
	as := generate.RMATCollection(6, generate.Opts{Rows: 400, Cols: 30, NNZPerCol: 10, Seed: 2}, generate.Graph500)
	want := matrix.ReferenceAdd(as)
	for _, alg := range Algorithms {
		got, err := Add(as, Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: result differs from dense reference on RMAT inputs", alg)
		}
	}
}

func TestUnsortedInputs(t *testing.T) {
	as := erInputs(5, 300, 20, 9, 3)
	// Shuffle entries within each column.
	rng := rand.New(rand.NewSource(4))
	for _, a := range as {
		for j := 0; j < a.Cols; j++ {
			rows, vals := a.ColRows(j), a.ColVals(j)
			rng.Shuffle(len(rows), func(x, y int) {
				rows[x], rows[y] = rows[y], rows[x]
				vals[x], vals[y] = vals[y], vals[x]
			})
		}
	}
	want := matrix.ReferenceAdd(as)

	// Table I: SPA, Hash, SlidingHash and the map baselines accept
	// unsorted inputs.
	for _, alg := range []Algorithm{SPA, Hash, SlidingHash, MapIncremental, MapTree} {
		got, err := Add(as, Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v on unsorted: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: wrong result on unsorted inputs", alg)
		}
	}
	// Sliding with forced partitioning must also survive unsorted input
	// (scan-filter path).
	got, err := Add(as, Options{Algorithm: SlidingHash, SortedOutput: true, MaxTableEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("sliding hash scan-filter path wrong on unsorted inputs")
	}
	// Auto reaching SlidingHash (a tiny CacheBytes makes the tables
	// spill) runs the sortedness scan after resolution and hands its
	// answer to the kernels.
	auto := Options{CacheBytes: 64, SortedOutput: true}
	p, err := auto.validate(as, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.alg != SlidingHash || p.sortedIn {
		t.Fatalf("Auto on unsorted inputs resolved to %v with sortedIn=%v, want SlidingHash, false", p.alg, p.sortedIn)
	}
	got, err = Add(as, auto)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("Auto-resolved sliding hash wrong on unsorted inputs")
	}

	// 2-way merge and heap must refuse unsorted input.
	for _, alg := range []Algorithm{TwoWayIncremental, TwoWayTree, Heap} {
		if _, err := Add(as, Options{Algorithm: alg}); !errors.Is(err, ErrUnsortedInput) {
			t.Errorf("%v: want ErrUnsortedInput, got %v", alg, err)
		}
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Add(nil, Options{}); !errors.Is(err, ErrNoInputs) {
		t.Errorf("empty input: got %v", err)
	}
	a := matrix.FromTriples(4, 4, []matrix.Triple{{Row: 1, Col: 1, Val: 1}})
	b := matrix.FromTriples(5, 4, nil)
	if _, err := Add([]*matrix.CSC{a, b}, Options{}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch: got %v", err)
	}
}

func TestSingleInputClones(t *testing.T) {
	a := matrix.FromTriples(4, 4, []matrix.Triple{{Row: 2, Col: 3, Val: 7}})
	got, err := Add([]*matrix.CSC{a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Error("k=1 must return the input matrix")
	}
	got.Val[0] = 99
	if a.Val[0] == 99 {
		t.Error("k=1 result aliases the input")
	}
}

func TestIncrementalDoesNotMutateInputs(t *testing.T) {
	as := erInputs(4, 100, 10, 5, 5)
	snapshots := make([]*matrix.CSC, len(as))
	for i, a := range as {
		snapshots[i] = a.Clone()
	}
	for _, alg := range []Algorithm{TwoWayIncremental, TwoWayTree, MapIncremental, MapTree, Heap, SPA, Hash, SlidingHash} {
		if _, err := Add(as, Options{Algorithm: alg}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i := range as {
			if !as[i].Equal(snapshots[i]) {
				t.Fatalf("%v mutated input %d", alg, i)
			}
		}
	}
}

func TestSchedulesAgree(t *testing.T) {
	as := generate.RMATCollection(5, generate.Opts{Rows: 300, Cols: 24, NNZPerCol: 8, Seed: 6}, generate.Graph500)
	want := matrix.ReferenceAdd(as)
	for _, th := range []int{1, 2, 4} {
		got, err := Add(as, Options{Algorithm: Hash, Threads: th, SortedOutput: true})
		if err != nil {
			t.Fatalf("Threads %d: %v", th, err)
		}
		if !got.Equal(want) {
			t.Errorf("Threads %d: wrong result", th)
		}
	}
}

func TestUnsortedOutputStillCorrect(t *testing.T) {
	as := erInputs(6, 200, 16, 10, 7)
	want := matrix.ReferenceAdd(as)
	for _, alg := range []Algorithm{Hash, SPA, SlidingHash} {
		got, err := Add(as, Options{Algorithm: alg, SortedOutput: false})
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) { // Equal compares columns as sets
			t.Errorf("%v: unsorted output has wrong entries", alg)
		}
	}
}

func TestAutoSelection(t *testing.T) {
	as := erInputs(4, 300, 8, 20, 8)
	// Huge cache: plain hash.
	if alg := autoSelect(as, Options{CacheBytes: 1 << 30}); alg != Hash {
		t.Errorf("large cache: auto = %v, want Hash", alg)
	}
	// Tiny cache: sliding hash.
	if alg := autoSelect(as, Options{CacheBytes: 64}); alg != SlidingHash {
		t.Errorf("tiny cache: auto = %v, want SlidingHash", alg)
	}
	// End to end through Auto.
	got, err := Add(as, Options{Algorithm: Auto, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(matrix.ReferenceAdd(as)) {
		t.Error("Auto produced a wrong result")
	}
}

func TestPhaseTimingsReported(t *testing.T) {
	as := erInputs(8, 2000, 64, 32, 9)
	// SlidingHash, the two-pass driver, times both phases.
	_, pt, err := AddTimed(as, Options{Algorithm: SlidingHash})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Symbolic <= 0 || pt.Numeric <= 0 {
		t.Errorf("two-pass phases not timed: %+v", pt)
	}
	if pt.Total() != pt.Symbolic+pt.Numeric {
		t.Error("Total mismatch")
	}
	_, pt2, err := AddTimed(as, Options{Algorithm: TwoWayTree})
	if err != nil {
		t.Fatal(err)
	}
	if pt2.Symbolic != 0 || pt2.Numeric <= 0 {
		t.Errorf("2-way phases: %+v", pt2)
	}
	// The single-pass engine has no symbolic phase to time.
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		_, pt3, err := AddTimed(as, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if pt3.Symbolic != 0 || pt3.Numeric <= 0 {
			t.Errorf("%v single-pass phases: %+v", alg, pt3)
		}
	}
}

func TestQuickAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(6) + 2
		rows := rng.Intn(120) + 4
		cols := rng.Intn(24) + 1
		as := make([]*matrix.CSC, k)
		for i := range as {
			coo := matrix.NewCOO(rows, cols)
			// Positive values: the dense reference drops exact-zero
			// sums, while SpKAdd keeps explicit zeros (tested
			// separately in TestCancellationKeepsExplicitZeros).
			for e := 0; e < rng.Intn(80); e++ {
				coo.Append(matrix.Index(rng.Intn(rows)), matrix.Index(rng.Intn(cols)), float64(rng.Intn(7)+1))
			}
			as[i] = coo.ToCSC()
		}
		want := matrix.ReferenceAdd(as)
		for _, alg := range Algorithms {
			got, err := Add(as, Options{Algorithm: alg, SortedOutput: true, Threads: 1 + rng.Intn(3)})
			if err != nil {
				return false
			}
			if !got.EqualTol(want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEmptyColumnsAndMatrices(t *testing.T) {
	// Some inputs entirely empty, some columns empty everywhere.
	a := matrix.FromTriples(10, 5, []matrix.Triple{{Row: 1, Col: 0, Val: 1}})
	empty := matrix.NewCSC(10, 5, 0)
	c := matrix.FromTriples(10, 5, []matrix.Triple{{Row: 9, Col: 4, Val: 2}})
	as := []*matrix.CSC{a, empty, c}
	want := matrix.ReferenceAdd(as)
	for _, alg := range Algorithms {
		got, err := Add(as, Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: wrong result with empty inputs", alg)
		}
	}
	// All inputs empty.
	got, err := Add([]*matrix.CSC{empty, empty.Clone()}, Options{Algorithm: Hash})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.Rows != 10 || got.Cols != 5 {
		t.Errorf("empty sum = %v", got)
	}
}

func TestCancellationKeepsExplicitZeros(t *testing.T) {
	// SpKAdd is numeric addition: +1 and -1 at the same position sum
	// to an explicit zero entry, which stays stored (the symbolic
	// phase counts structure, not values) — same as the paper's
	// implementations.
	a := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: 1}})
	b := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: -1}})
	for _, alg := range Algorithms {
		got, err := Add([]*matrix.CSC{a, b}, Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got.NNZ() != 1 || got.Val[0] != 0 {
			t.Errorf("%v: cancellation produced nnz=%d vals=%v, want one explicit zero", alg, got.NNZ(), got.Val)
		}
	}
}

func TestCompressionFactorExtremes(t *testing.T) {
	// cf = k: all inputs identical support.
	base := matrix.FromTriples(50, 4, []matrix.Triple{
		{Row: 3, Col: 0, Val: 1}, {Row: 7, Col: 1, Val: 2}, {Row: 49, Col: 3, Val: 3},
	})
	as := []*matrix.CSC{base, base.Clone(), base.Clone(), base.Clone()}
	want := matrix.ReferenceAdd(as)
	for _, alg := range Algorithms {
		got, err := Add(as, Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: wrong result at cf=k", alg)
		}
		if got.NNZ() != base.NNZ() {
			t.Errorf("%v: nnz=%d, want %d (maximal compression)", alg, got.NNZ(), base.NNZ())
		}
	}
}
