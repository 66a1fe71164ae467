package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// The parity suite: the single-pass engines must produce output
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
				for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
					for _, s := range []Schedule{ScheduleWeighted, ScheduleStatic, ScheduleDynamic} {
						name := fmt.Sprintf("%s/%v/sorted=%v/%v/sched=%d", pattern, alg, sorted, p, s)
						got, err := Add(as, Options{
							Algorithm: alg, Phases: p, SortedOutput: sorted,
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
		for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
			got, err := Add(as, Options{Algorithm: alg, Phases: p, SortedOutput: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, p, err)
			}
			if !got.Equal(want) {
				t.Errorf("%v/%v: wrong result on unsorted inputs", alg, p)
			}
		}
	}
}

func TestPhasesSlidingHashFallsBack(t *testing.T) {
	// SlidingHash has no single-pass engine; an explicit fused or
	// upper-bound request silently keeps the two-phase driver and the
	// result stays correct.
	as := erInputs(8, 500, 16, 20, 75)
	want := matrix.ReferenceAdd(as)
	for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
		var st OpStats
		got, err := Add(as, Options{Algorithm: SlidingHash, Phases: p, SortedOutput: true, Stats: &st, MaxTableEntries: 8})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: wrong result", p)
		}
		if st.SymProbes.Load() == 0 {
			t.Errorf("%v: sliding hash should have run its symbolic phase", p)
		}
	}
}

func TestPhasesCancellationAndEmpty(t *testing.T) {
	// Cancellation to explicit zeros and empty inputs behave the same
	// in every engine (the engines are structural, not value-driven).
	a := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: 1}})
	b := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: -1}})
	empty := matrix.NewCSC(10, 5, 0)
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
			got, err := Add([]*matrix.CSC{a, b}, Options{Algorithm: alg, Phases: p, SortedOutput: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, p, err)
			}
			if got.NNZ() != 1 || got.Val[0] != 0 {
				t.Errorf("%v/%v: cancellation produced nnz=%d, want one explicit zero", alg, p, got.NNZ())
			}
			zero, err := Add([]*matrix.CSC{empty, empty.Clone()}, Options{Algorithm: alg, Phases: p})
			if err != nil {
				t.Fatalf("%v/%v empty: %v", alg, p, err)
			}
			if zero.NNZ() != 0 || zero.Rows != 10 || zero.Cols != 5 {
				t.Errorf("%v/%v: empty sum = %v", alg, p, zero)
			}
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
		for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
			got, err := AddScaled(as, coeffs, Options{Algorithm: alg, Phases: p, SortedOutput: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, p, err)
			}
			if !got.Equal(want) {
				t.Errorf("%v/%v: scaled sum differs from two-pass engine", alg, p)
			}
		}
	}
}

func TestPhasesAccumulatorParity(t *testing.T) {
	as := erInputs(20, 800, 16, 12, 77)
	want := matrix.ReferenceAdd(as)
	for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
		for _, budget := range []int64{1, 10 * entryBytes, 1 << 20} {
			ac := NewAccumulator(800, 16, budget, Options{Algorithm: Hash, Phases: p, SortedOutput: true})
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
				t.Errorf("%v/budget=%d: streaming sum differs", p, budget)
			}
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
	for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
		got, err := AddCSR([]*matrix.CSR{a, b}, Options{Algorithm: Hash, Phases: p, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || len(got.ColIdx) != len(want.ColIdx) {
			t.Fatalf("%v: shape/nnz mismatch", p)
		}
		for i := range got.ColIdx {
			if got.ColIdx[i] != want.ColIdx[i] || got.Val[i] != want.Val[i] {
				t.Fatalf("%v: CSR entry %d differs", p, i)
			}
		}
	}
}

func TestPhasesSortedOutputBitIdentical(t *testing.T) {
	// With sorted output, all three engines must agree bit for bit:
	// per-row accumulation order is the input order in every engine,
	// so even the float sums match exactly.
	as := generate.RMATCollection(8, generate.Opts{Rows: 400, Cols: 16, NNZPerCol: 12, Seed: 80}, generate.Graph500)
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		ref, err := Add(as, Options{Algorithm: alg, Phases: PhasesTwoPass, SortedOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
			got, err := Add(as, Options{Algorithm: alg, Phases: p, SortedOutput: true, Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got.NNZ() != ref.NNZ() {
				t.Fatalf("%v/%v: nnz %d != %d", alg, p, got.NNZ(), ref.NNZ())
			}
			for i := range got.RowIdx {
				if got.RowIdx[i] != ref.RowIdx[i] || got.Val[i] != ref.Val[i] {
					t.Fatalf("%v/%v: layout differs at %d", alg, p, i)
				}
			}
		}
	}
}

// TestPhasesUnsortedHashOrderIdentical pins the unsorted Hash layout:
// every engine emits a column in first-seen row order, so the output
// is identical entry for entry although the two-pass engine sizes its
// tables by output nnz and the single-pass engines by input nnz.
func TestPhasesUnsortedHashOrderIdentical(t *testing.T) {
	as := generate.RMATCollection(8, generate.Opts{Rows: 400, Cols: 16, NNZPerCol: 12, Seed: 83}, generate.Graph500)
	ref, err := Add(as, Options{Algorithm: Hash, Phases: PhasesTwoPass})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
		got, err := Add(as, Options{Algorithm: Hash, Phases: p, Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, ref, "unsorted Hash/"+p.String())
	}
}

func TestPhasesAutoPolicy(t *testing.T) {
	// Rare duplicates within the staging cap: upper bound.
	sparse := erInputs(4, 100000, 8, 16, 81)
	if p := pickPhases(estimateWorkload(sparse), Hash, Options{}); p != PhasesUpperBound {
		t.Errorf("sparse ER: auto = %v, want UpperBound", p)
	}
	// Heavy duplicates (k identical supports): fused.
	base := generate.ER(generate.Opts{Rows: 200, Cols: 8, NNZPerCol: 16, Seed: 82})
	dup := []*matrix.CSC{base, base.Clone(), base.Clone(), base.Clone(), base.Clone(), base.Clone(), base.Clone(), base.Clone()}
	if p := pickPhases(estimateWorkload(dup), Hash, Options{}); p != PhasesFused {
		t.Errorf("duplicate-heavy: auto = %v, want Fused", p)
	}
	// Fused hash tables spilling the cache: two-pass.
	if p := pickPhases(estimateWorkload(sparse), Hash, Options{CacheBytes: 16}); p != PhasesTwoPass {
		t.Errorf("tiny cache: auto = %v, want TwoPass", p)
	}
	// Unsupported algorithms always resolve to two-pass, even when
	// asked for a single-pass engine.
	if p := pickPhases(estimateWorkload(sparse), SlidingHash, Options{Phases: PhasesFused}); p != PhasesTwoPass {
		t.Errorf("sliding hash: resolved %v, want TwoPass", p)
	}
	// An explicit request on a supported algorithm is honored.
	if p := pickPhases(estimateWorkload(dup), Heap, Options{Phases: PhasesUpperBound}); p != PhasesUpperBound {
		t.Errorf("explicit request: resolved %v, want UpperBound", p)
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
		for _, p := range []Phases{PhasesFused, PhasesUpperBound} {
			got, err := Add(as, Options{Algorithm: alg, Phases: p, SortedOutput: sorted, Threads: 1 + rng.Intn(3)})
			if err != nil || got.Validate() != nil || !got.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
