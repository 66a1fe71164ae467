package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// The parity suite: the single-pass engine must produce output
// entry-for-entry identical (after canonical sort; Equal compares
// sorted columns with zero tolerance) to the two-phase engine for
// every supported kernel/option combination.

func phasesInputs() map[string][]*matrix.CSC {
	return map[string][]*matrix.CSC{
		"ER":   erInputs(8, 600, 24, 16, 71),
		"RMAT": generate.RMATCollection(6, generate.Opts{Rows: 500, Cols: 20, NNZPerCol: 12, Seed: 72}, generate.Graph500),
	}
}

func TestPhasesParityAllCombos(t *testing.T) {
	for pattern, as := range phasesInputs() {
		for _, alg := range []Algorithm{Hash, SPA, Heap} {
			for _, sorted := range []bool{false, true} {
				base := Options{Algorithm: alg, Phases: PhasesTwoPass, SortedOutput: sorted}
				want, err := Add(as, base)
				if err != nil {
					t.Fatalf("%s/%v two-pass: %v", pattern, alg, err)
				}
				for _, s := range []Schedule{ScheduleWeighted, ScheduleStatic, ScheduleDynamic} {
					name := fmt.Sprintf("%s/%v/sorted=%v/sched=%d", pattern, alg, sorted, s)
					got, err := Add(as, Options{
						Algorithm: alg, Phases: PhasesUpperBound, SortedOutput: sorted,
						Schedule: s, Threads: 3,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s: invalid output: %v", name, err)
					}
					if !got.Equal(want) {
						t.Errorf("%s: differs from two-pass engine", name)
					}
					if sorted && !got.IsColumnSorted() {
						t.Errorf("%s: SortedOutput violated", name)
					}
				}
			}
		}
	}
}

func TestPhasesParityUnsortedInputs(t *testing.T) {
	// Hash and SPA accept unsorted input columns in every engine.
	as := erInputs(5, 300, 20, 9, 73)
	rng := rand.New(rand.NewSource(74))
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
	for _, alg := range []Algorithm{Hash, SPA} {
		got, err := Add(as, Options{Algorithm: alg, Phases: PhasesUpperBound, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: wrong result on unsorted inputs", alg)
		}
	}
}

func TestPhasesSlidingHashFallsBack(t *testing.T) {
	// SlidingHash has no single-pass engine; an explicit upper-bound
	// request silently keeps the two-phase driver and the result stays
	// correct.
	as := erInputs(8, 500, 16, 20, 75)
	want := matrix.ReferenceAdd(as)
	var st OpStats
	got, err := Add(as, Options{Algorithm: SlidingHash, Phases: PhasesUpperBound, SortedOutput: true, Stats: &st, MaxTableEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("wrong result")
	}
	if st.SymProbes.Load() == 0 {
		t.Error("sliding hash should have run its symbolic phase")
	}
}

func TestPhasesCancellationAndEmpty(t *testing.T) {
	// Cancellation to explicit zeros and empty inputs behave the same
	// in every engine (the engines are structural, not value-driven).
	a := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: 1}})
	b := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: -1}})
	empty := matrix.NewCSC(10, 5, 0)
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		got, err := Add([]*matrix.CSC{a, b}, Options{Algorithm: alg, Phases: PhasesUpperBound, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got.NNZ() != 1 || got.Val[0] != 0 {
			t.Errorf("%v: cancellation produced nnz=%d, want one explicit zero", alg, got.NNZ())
		}
		zero, err := Add([]*matrix.CSC{empty, empty.Clone()}, Options{Algorithm: alg, Phases: PhasesUpperBound})
		if err != nil {
			t.Fatalf("%v empty: %v", alg, err)
		}
		if zero.NNZ() != 0 || zero.Rows != 10 || zero.Cols != 5 {
			t.Errorf("%v: empty sum = %v", alg, zero)
		}
	}
}

func TestPhasesAddScaledParity(t *testing.T) {
	as := erInputs(6, 400, 16, 12, 76)
	coeffs := make([]matrix.Value, len(as))
	for i := range coeffs {
		coeffs[i] = 0.25 * matrix.Value(i+1)
	}
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		want, err := AddScaled(as, coeffs, Options{Algorithm: alg, Phases: PhasesTwoPass, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v two-pass: %v", alg, err)
		}
		got, err := AddScaled(as, coeffs, Options{Algorithm: alg, Phases: PhasesUpperBound, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: scaled sum differs from two-pass engine", alg)
		}
	}
}

func TestPhasesAccumulatorParity(t *testing.T) {
	as := erInputs(20, 800, 16, 12, 77)
	want := matrix.ReferenceAdd(as)
	for _, budget := range []int64{1, 10 * entryBytes, 1 << 20} {
		ac := NewAccumulator(800, 16, budget, Options{Algorithm: Hash, Phases: PhasesUpperBound, SortedOutput: true})
		for _, a := range as {
			if err := ac.Push(a); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ac.Sum()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("budget=%d: streaming sum differs", budget)
		}
	}
}

func TestPhasesAddCSRParity(t *testing.T) {
	a := generate.ER(generate.Opts{Rows: 300, Cols: 40, NNZPerCol: 8, Seed: 78}).ToCSR()
	b := generate.ER(generate.Opts{Rows: 300, Cols: 40, NNZPerCol: 8, Seed: 79}).ToCSR()
	want, err := AddCSR([]*matrix.CSR{a, b}, Options{Algorithm: Hash, Phases: PhasesTwoPass, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AddCSR([]*matrix.CSR{a, b}, Options{Algorithm: Hash, Phases: PhasesUpperBound, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.ColIdx) != len(want.ColIdx) {
		t.Fatal("shape/nnz mismatch")
	}
	for i := range got.ColIdx {
		if got.ColIdx[i] != want.ColIdx[i] || got.Val[i] != want.Val[i] {
			t.Fatalf("CSR entry %d differs", i)
		}
	}
}

func TestPhasesSortedOutputBitIdentical(t *testing.T) {
	// With sorted output, both engines must agree bit for bit:
	// per-row accumulation order is the input order in every engine,
	// so even the float sums match exactly.
	as := generate.RMATCollection(8, generate.Opts{Rows: 400, Cols: 16, NNZPerCol: 12, Seed: 80}, generate.Graph500)
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		ref, err := Add(as, Options{Algorithm: alg, Phases: PhasesTwoPass, SortedOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Add(as, Options{Algorithm: alg, Phases: PhasesUpperBound, SortedOutput: true, Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != ref.NNZ() {
			t.Fatalf("%v: nnz %d != %d", alg, got.NNZ(), ref.NNZ())
		}
		for i := range got.RowIdx {
			if got.RowIdx[i] != ref.RowIdx[i] || got.Val[i] != ref.Val[i] {
				t.Fatalf("%v: layout differs at %d", alg, i)
			}
		}
	}
}

// TestPhasesUnsortedHashOrderIdentical pins the unsorted Hash layout:
// both engines emit a column in first-seen row order, so the output
// is identical entry for entry although the two-pass engine sizes its
// tables by output nnz and the single-pass engine by input nnz.
func TestPhasesUnsortedHashOrderIdentical(t *testing.T) {
	as := generate.RMATCollection(8, generate.Opts{Rows: 400, Cols: 16, NNZPerCol: 12, Seed: 83}, generate.Graph500)
	ref, err := Add(as, Options{Algorithm: Hash, Phases: PhasesTwoPass})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Add(as, Options{Algorithm: Hash, Phases: PhasesUpperBound, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, ref, "unsorted Hash")
}

func TestPhasesAutoPolicy(t *testing.T) {
	// Rare duplicates within the staging cap: upper bound.
	sparse := erInputs(4, 100000, 8, 16, 81)
	if p := pickPhases(estimateWorkload(sparse), Hash, Options{}); p != PhasesUpperBound {
		t.Errorf("sparse ER: auto = %v, want UpperBound", p)
	}
	// Heavy duplicates (k identical supports): upper bound too.
	base := generate.ER(generate.Opts{Rows: 200, Cols: 8, NNZPerCol: 16, Seed: 82})
	dup := []*matrix.CSC{base, base.Clone(), base.Clone(), base.Clone(), base.Clone(), base.Clone(), base.Clone(), base.Clone()}
	if p := pickPhases(estimateWorkload(dup), Hash, Options{}); p != PhasesUpperBound {
		t.Errorf("duplicate-heavy: auto = %v, want UpperBound", p)
	}
	// Single-pass hash tables spilling the cache: two-pass.
	if p := pickPhases(estimateWorkload(sparse), Hash, Options{CacheBytes: 16}); p != PhasesTwoPass {
		t.Errorf("tiny cache: auto = %v, want TwoPass", p)
	}
	// Staging past the cap: two-pass, which needs no staging.
	autoPolicyStagingCap[float64](t)
	autoPolicyStagingCap[float32](t)
	// Unsupported algorithms always resolve to two-pass, even when
	// asked for the single-pass engine.
	if p := pickPhases(estimateWorkload(sparse), SlidingHash, Options{Phases: PhasesUpperBound}); p != PhasesTwoPass {
		t.Errorf("sliding hash: resolved %v, want TwoPass", p)
	}
	// An explicit request on a supported algorithm is honored.
	if p := pickPhases(estimateWorkload(dup), Heap, Options{Phases: PhasesUpperBound}); p != PhasesUpperBound {
		t.Errorf("explicit request: resolved %v, want UpperBound", p)
	}
}

// autoPolicyStagingCap checks that Auto flips from UpperBound to
// TwoPass exactly at upperBoundStagingCap. The cap is in bytes, so the
// entry count that crosses it depends on T's entry width.
func autoPolicyStagingCap[T matrix.Number](t *testing.T) {
	t.Helper()
	limit := upperBoundStagingCap / entryBytesOf[T]()
	const cols = 1 << 20 // ~100 entries per column: tables stay in cache
	for _, tc := range []struct {
		total int64
		want  Phases
	}{{limit - 1, PhasesUpperBound}, {limit + 1, PhasesTwoPass}} {
		est := workloadEstimate{k: 1, rows: cols, cols: cols, total: tc.total, avgColNNZ: float64(tc.total) / cols}
		if p := pickPhases(est, Hash, OptionsOf[T]{}); p != tc.want {
			var z T
			t.Errorf("%T staging of %d entries: auto = %v, want %v", z, tc.total, p, tc.want)
		}
	}
}

func TestQuickPhasesParity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(6) + 2
		rows := rng.Intn(120) + 1
		cols := rng.Intn(24) + 1
		as := make([]*matrix.CSC, k)
		for i := range as {
			coo := matrix.NewCOO(rows, cols)
			for e := 0; e < rng.Intn(80); e++ {
				coo.Append(matrix.Index(rng.Intn(rows)), matrix.Index(rng.Intn(cols)), float64(rng.Intn(7)+1))
			}
			as[i] = coo.ToCSC()
		}
		alg := []Algorithm{Hash, SPA, Heap}[rng.Intn(3)]
		sorted := rng.Intn(2) == 0
		want, err := Add(as, Options{Algorithm: alg, Phases: PhasesTwoPass, SortedOutput: sorted})
		if err != nil {
			return false
		}
		got, err := Add(as, Options{Algorithm: alg, Phases: PhasesUpperBound, SortedOutput: sorted, Threads: 1 + rng.Intn(3)})
		return err == nil && got.Validate() == nil && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
