package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
	"spkadd/internal/ops"
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

// headersOf returns inputs of rows × cols holding nnz entries in all,
// as headers over the shared row array buf. autoSelect reads only Rows,
// Cols and NNZ, so any shape is priced without being built.
func headersOf[T matrix.Number](buf []matrix.Index, rows, cols int, nnz int64) []*matrix.CSCOf[T] {
	var as []*matrix.CSCOf[T]
	for left := nnz; left > 0 || len(as) == 0; {
		n := min(left, int64(len(buf)))
		as = append(as, &matrix.CSCOf[T]{Rows: rows, Cols: cols, RowIdx: buf[:n]})
		left -= n
	}
	return as
}

// TestAutoSelection pins Auto's decision table: SlidingHash by rules 1
// and 2, then SPA where the worker's rows × entryBytes accumulator fits
// spaMaxBytes and rows ≤ spaRowsPerEntry·kd, and Hash otherwise. It
// covers both edges of the byte cap for every element type, both edges
// of the density rule, and the benchmark workloads' shapes.
// TestEstimateSharedAcrossHeuristics checks that validate resolves Auto
// the same way, and that a DropIdentity monoid keeps SPA.
func TestAutoSelection(t *testing.T) {
	buf := make([]matrix.Index, 1<<20)
	autoSPACap[float64](t, buf)
	autoSPACap[float32](t, buf)
	autoSPACap[int32](t, buf)
	autoSPACap[int64](t, buf)
	autoSPACap[bool](t, buf)

	for _, c := range []struct {
		name       string
		rows, cols int
		nnz        int64
		opt        Options
		want       Algorithm
	}{
		// Density: one input entry per spaRowsPerEntry rows, then one row more.
		{"rows = 48·kd", 48 * 1000, 4, 4000, Options{Threads: 1}, SPA},
		{"rows = 48·kd + 1", 48*1000 + 1, 4, 4000, Options{Threads: 1}, Hash},
		{"kd rounds down", 48*1000 + 1, 4, 4003, Options{Threads: 1}, Hash},
		// The benchmark workloads, at default threads and cache.
		{"kadd-rmat", 1 << 17, 256, 955069, Options{}, SPA},
		{"kadd-er", 1 << 20, 512, 2097092, Options{}, Hash},
		{"ingest-http running sum", 1 << 16, 256, 4000 * 256, Options{}, SPA},
		{"ER 2^17, kd = 2047", 1 << 17, 256, 2047 * 256, Options{}, Hash},
		// The SlidingHash rules come first, on a shape SPA would take.
		{"symbolic tables spill", 1 << 10, 4, 1 << 16, Options{Threads: 1, CacheBytes: 1<<16 - 1}, SlidingHash},
		{"symbolic tables fit", 1 << 10, 4, 1 << 16, Options{Threads: 1, CacheBytes: 1 << 16}, SPA},
		{"staging past its cap", 1 << 10, 1 << 10, upperBoundStagingCap/entryBytes + 1, Options{Threads: 1}, SlidingHash},
		{"no columns", 1 << 10, 0, 0, Options{}, Hash},
	} {
		as := headersOf[matrix.Value](buf, c.rows, c.cols, c.nnz)
		if alg := autoSelect(as, c.opt); alg != c.want {
			t.Errorf("%s: auto = %v, want %v", c.name, alg, c.want)
		}
	}
}

// autoSPACap checks both edges of spaMaxBytes for T: the largest row
// count whose accumulator fits takes SPA and one row more takes Hash,
// with columns dense enough that the density rule holds on both.
func autoSPACap[T matrix.Number](t *testing.T, buf []matrix.Index) {
	t.Helper()
	var z T
	fit := int(spaMaxBytes / entryBytesOf[T]())
	for _, c := range []struct {
		rows int
		want Algorithm
	}{{fit, SPA}, {fit + 1, Hash}} {
		as := headersOf[T](buf, c.rows, 1, int64(c.rows))
		if alg := autoSelect(as, OptionsOf[T]{Threads: 1}); alg != c.want {
			t.Errorf("%T, %d rows: auto = %v, want %v", z, c.rows, alg, c.want)
		}
	}
}

// TestAutoSPAParity: where Auto resolves to SPA, its unsorted output is
// bit-identical to explicit Hash's, entry order included, since both
// emit a column in first-insertion order and fold a row's entries in
// input order.
func TestAutoSPAParity(t *testing.T) {
	for name, as := range map[string][]*matrix.CSC{
		"ER":   erInputs(8, 1<<11, 64, 16, 91),
		"RMAT": generate.RMATCollection(16, generate.Opts{Rows: 1 << 12, Cols: 32, NNZPerCol: 16, Seed: 92}, generate.Graph500),
	} {
		for _, threads := range []int{1, 2, 4} {
			var st OpStats
			got, err := Add(as, Options{Threads: threads, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			if st.SPATouches.Load() == 0 || st.HashProbes.Load() != 0 {
				t.Fatalf("%s T=%d: Auto did not run SPA (%d touches, %d probes)", name, threads, st.SPATouches.Load(), st.HashProbes.Load())
			}
			want, err := Add(as, Options{Algorithm: Hash, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, fmt.Sprintf("%s T=%d", name, threads))
		}
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

// BenchmarkAutoSPA times SPA against Hash in ns per input entry, the
// evidence for spaMaxBytes and spaRowsPerEntry (DESIGN.md §2). Its grid
// is m ∈ {2^15, ..., 2^18} rows × kd ∈ {128, ..., 8192} input entries
// per column × {ER, R-MAT} × {float64, float32}, plus bool under Any at
// 2^18 rows, whose 1.25 MiB accumulator fits where float32's 2 MiB does
// not. Each cell adds k = 32 inputs of d = kd/32 entries per column
// over 2^19/kd columns, about 2^19 entries in all (R-MAT's duplicate
// draws make its kd a little lower), on a recycling workspace at
// Threads 2 after two warm-up calls.
func BenchmarkAutoSPA(b *testing.B) {
	const k, entries = 32, 1 << 19
	for _, pattern := range []string{"ER", "RMAT"} {
		for lg := 15; lg <= 18; lg++ {
			for _, kd := range []int{128, 512, 1024, 2048, 4096, 8192} {
				o := generate.Opts{Rows: 1 << lg, Cols: entries / kd, NNZPerCol: kd / k, Seed: uint64(lg<<16 | kd)}
				as := generate.ERCollection(k, o)
				if pattern == "RMAT" {
					as = generate.RMATCollection(k, o, generate.Graph500)
				}
				name := fmt.Sprintf("%s/m=2^%d/kd=%d", pattern, lg, kd)
				autoSPACell(b, name+"/float64", as, nil)
				autoSPACell(b, name+"/float32", convertAll[float32](as), nil)
				if lg == 18 {
					autoSPACell(b, name+"/bool", convertAll[bool](as), ops.AnyFor[bool]())
				}
			}
		}
	}
}

func autoSPACell[T matrix.Number](b *testing.B, name string, as []*matrix.CSCOf[T], m *ops.MonoidOf[T]) {
	var entries int64
	for _, a := range as {
		entries += int64(a.NNZ())
	}
	for _, alg := range []Algorithm{Hash, SPA} {
		b.Run(name+"/"+alg.String(), func(b *testing.B) {
			ws := NewWorkspaceOf[T](true)
			defer ws.Close()
			opt := OptionsOf[T]{Algorithm: alg, Threads: 2, Monoid: m}
			for range 2 {
				if _, err := ws.Add(as, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Add(as, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*entries), "ns/entry")
		})
	}
}
