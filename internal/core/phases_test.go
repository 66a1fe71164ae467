package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// The parity suite. Each k-way algorithm has exactly one engine: Hash,
// SPA and Heap read each input once, SlidingHash keeps the two-pass
// driver. Unpartitioned SlidingHash is the paper's two-phase hash
// (Algorithms 5-6), so it is the reference the others are held to bit
// for bit:
//   - with SortedOutput, Hash, SPA and Heap match it exactly: every
//     algorithm folds a row's entries in input order, so even the
//     float sums agree;
//   - unsorted Hash matches it too, since both emit a column in
//     first-insertion order;
//   - partitioned SlidingHash (MaxTableEntries) matches it when sorted.
//
// The inputs are small, so the default CacheBytes leaves SlidingHash
// unpartitioned unless MaxTableEntries is set.

func phasesInputs() map[string][]*matrix.CSC {
	return map[string][]*matrix.CSC{
		"ER":   erInputs(8, 600, 24, 16, 71),
		"RMAT": generate.RMATCollection(6, generate.Opts{Rows: 500, Cols: 20, NNZPerCol: 12, Seed: 72}, generate.Graph500),
	}
}

// twoPhase returns the reference sum of as: unpartitioned SlidingHash,
// which must report the two-pass engine and a symbolic phase.
func twoPhase(t *testing.T, as []*matrix.CSC, sorted bool) *matrix.CSC {
	t.Helper()
	var st OpStats
	ref, err := Add(as, Options{Algorithm: SlidingHash, SortedOutput: sorted, Stats: &st})
	if err != nil {
		t.Fatalf("two-phase reference: %v", err)
	}
	if e, _ := st.EngineUsed(); e != PhasesTwoPass || st.SymProbes.Load() == 0 {
		t.Fatalf("two-phase reference ran %v with %d symbolic probes, want TwoPass with a symbolic phase", e, st.SymProbes.Load())
	}
	return ref
}

func TestPhasesParityAllCombos(t *testing.T) {
	for pattern, as := range phasesInputs() {
		for _, sorted := range []bool{false, true} {
			want := twoPhase(t, as, sorted)
			for _, alg := range []Algorithm{Hash, SPA, Heap} {
				name := fmt.Sprintf("%s/%v/sorted=%v", pattern, alg, sorted)
				got, err := Add(as, Options{Algorithm: alg, SortedOutput: sorted, Threads: 3})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: invalid output: %v", name, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s: differs from the two-phase hash", name)
				}
				if sorted && !bitIdentical(got, want) {
					t.Errorf("%s: not bit-identical to the two-phase hash", name)
				}
				if sorted && !got.IsColumnSorted() {
					t.Errorf("%s: SortedOutput violated", name)
				}
			}
			for _, maxEntries := range []int{4, 16} {
				name := fmt.Sprintf("%s/SlidingHash/max=%d/sorted=%v", pattern, maxEntries, sorted)
				got, err := Add(as, Options{Algorithm: SlidingHash, MaxTableEntries: maxEntries, SortedOutput: sorted, Threads: 3})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s: differs from the unpartitioned run", name)
				}
				if sorted && !bitIdentical(got, want) {
					t.Errorf("%s: not bit-identical to the unpartitioned run", name)
				}
			}
		}
	}
}

func TestPhasesParityUnsortedInputs(t *testing.T) {
	// Hash, SPA and SlidingHash accept unsorted input columns;
	// SlidingHash then bounds its row ranges by a filtering scan.
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
	for _, opt := range []Options{
		{Algorithm: Hash},
		{Algorithm: SPA},
		{Algorithm: SlidingHash},
		{Algorithm: SlidingHash, MaxTableEntries: 4},
	} {
		opt.SortedOutput = true
		got, err := Add(as, opt)
		if err != nil {
			t.Fatalf("%v/max=%d: %v", opt.Algorithm, opt.MaxTableEntries, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v/max=%d: wrong result on unsorted inputs", opt.Algorithm, opt.MaxTableEntries)
		}
	}
}

func TestPhasesSlidingHashFallsBack(t *testing.T) {
	// SlidingHash has no single-pass engine: its per-part symbolic
	// counts are the algorithm. It runs the two-pass driver, symbolic
	// phase and all, and the result stays correct.
	as := erInputs(8, 500, 16, 20, 75)
	want := matrix.ReferenceAdd(as)
	var st OpStats
	got, pt, err := AddTimed(as, Options{Algorithm: SlidingHash, SortedOutput: true, Stats: &st, MaxTableEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("wrong result")
	}
	if st.SymProbes.Load() == 0 || pt.Symbolic <= 0 {
		t.Errorf("sliding hash should have run its symbolic phase: %d probes, %v", st.SymProbes.Load(), pt.Symbolic)
	}
	if e, _ := st.EngineUsed(); e != PhasesTwoPass {
		t.Errorf("sliding hash ran %v, want TwoPass", e)
	}
}

func TestPhasesCancellationAndEmpty(t *testing.T) {
	// Cancellation to explicit zeros and empty inputs behave the same
	// in every algorithm (the engines are structural, not value-driven).
	a := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: 1}})
	b := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: -1}})
	empty := matrix.NewCSC(10, 5, 0)
	for _, alg := range []Algorithm{Hash, SPA, Heap, SlidingHash} {
		got, err := Add([]*matrix.CSC{a, b}, Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got.NNZ() != 1 || got.Val[0] != 0 {
			t.Errorf("%v: cancellation produced nnz=%d, want one explicit zero", alg, got.NNZ())
		}
		zero, err := Add([]*matrix.CSC{empty, empty.Clone()}, Options{Algorithm: alg})
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
	want, err := AddScaled(as, coeffs, Options{Algorithm: SlidingHash, SortedOutput: true})
	if err != nil {
		t.Fatalf("two-phase hash: %v", err)
	}
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		got, err := AddScaled(as, coeffs, Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !bitIdentical(got, want) {
			t.Errorf("%v: scaled sum differs from the two-phase hash", alg)
		}
	}
}

func TestPhasesAccumulatorParity(t *testing.T) {
	as := erInputs(20, 800, 16, 12, 77)
	want := matrix.ReferenceAdd(as)
	for _, alg := range []Algorithm{Hash, SlidingHash} {
		for _, budget := range []int64{1, 10 * entryBytes, 1 << 20} {
			ac := NewAccumulator(800, 16, budget, Options{Algorithm: alg, SortedOutput: true})
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
				t.Errorf("%v/budget=%d: streaming sum differs", alg, budget)
			}
		}
	}
}

func TestPhasesAddCSRParity(t *testing.T) {
	a := generate.ER(generate.Opts{Rows: 300, Cols: 40, NNZPerCol: 8, Seed: 78}).ToCSR()
	b := generate.ER(generate.Opts{Rows: 300, Cols: 40, NNZPerCol: 8, Seed: 79}).ToCSR()
	want, err := AddCSR([]*matrix.CSR{a, b}, Options{Algorithm: SlidingHash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AddCSR([]*matrix.CSR{a, b}, Options{Algorithm: Hash, SortedOutput: true})
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
	// With sorted output every algorithm must agree bit for bit with
	// the two-phase hash, partitioned or not: per-row accumulation
	// order is the input order in every kernel, so even the float
	// sums match exactly.
	as := generate.RMATCollection(8, generate.Opts{Rows: 400, Cols: 16, NNZPerCol: 12, Seed: 80}, generate.Graph500)
	ref := twoPhase(t, as, true)
	for _, opt := range []Options{
		{Algorithm: Hash, Threads: 4},
		{Algorithm: SPA, Threads: 4},
		{Algorithm: Heap, Threads: 4},
		{Algorithm: SlidingHash, MaxTableEntries: 8, Threads: 2},
	} {
		opt.SortedOutput = true
		got, err := Add(as, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, ref, fmt.Sprintf("%v/max=%d", opt.Algorithm, opt.MaxTableEntries))
	}
}

// TestPhasesUnsortedHashOrderIdentical pins the unsorted Hash layout:
// the single pass and the two-phase hash both emit a column in
// first-seen row order, so the output is identical entry for entry
// although Hash sizes its tables by input nnz and the two-phase hash
// by output nnz.
func TestPhasesUnsortedHashOrderIdentical(t *testing.T) {
	as := generate.RMATCollection(8, generate.Opts{Rows: 400, Cols: 16, NNZPerCol: 12, Seed: 83}, generate.Graph500)
	ref := twoPhase(t, as, false)
	got, err := Add(as, Options{Algorithm: Hash, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, ref, "unsorted Hash")
}

// TestPhasesAutoPolicy pins Auto's one rule: Hash, until the symbolic
// tables would spill CacheBytes or Hash's single-pass staging would
// pass upperBoundStagingCap; SlidingHash past either. The footprint
// side is TestEstimateSharedAcrossHeuristics; this is the staging
// side, plus the resolution seen from outside.
func TestPhasesAutoPolicy(t *testing.T) {
	autoPolicyStagingCap[float64](t)
	autoPolicyStagingCap[float32](t)
	// End to end, EngineUsed shows which way Auto resolved.
	as := erInputs(4, 1000, 8, 16, 81)
	for _, tc := range []struct {
		cache int64
		want  Phases
	}{{0, PhasesUpperBound}, {16, PhasesTwoPass}} {
		var st OpStats
		got, err := Add(as, Options{CacheBytes: tc.cache, SortedOutput: true, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := st.EngineUsed(); e != tc.want {
			t.Errorf("CacheBytes %d: Auto ran %v, want %v", tc.cache, e, tc.want)
		}
		if !got.Equal(matrix.ReferenceAdd(as)) {
			t.Errorf("CacheBytes %d: wrong sum", tc.cache)
		}
	}
}

// autoPolicyStagingCap checks that Auto flips from Hash to SlidingHash
// exactly at upperBoundStagingCap. The cap is in bytes, so the entry
// count that crosses it depends on T's entry width. autoSelect reads
// only Cols and NNZ, so the inputs are headers over one shared row
// array: a gigabyte of staging is priced without being allocated.
func autoPolicyStagingCap[T matrix.Number](t *testing.T) {
	t.Helper()
	limit := upperBoundStagingCap / entryBytesOf[T]()
	const cols = 1 << 20 // ~100 entries per column: tables stay in cache
	rows := make([]matrix.Index, 1<<20)
	for _, tc := range []struct {
		total int64
		want  Algorithm
	}{{limit - 1, Hash}, {limit, Hash}, {limit + 1, SlidingHash}} {
		var as []*matrix.CSCOf[T]
		for left := tc.total; left > 0; {
			n := min(left, int64(len(rows)))
			as = append(as, &matrix.CSCOf[T]{Rows: cols, Cols: cols, RowIdx: rows[:n]})
			left -= n
		}
		if alg := autoSelect(as, OptionsOf[T]{}); alg != tc.want {
			var z T
			t.Errorf("%T staging of %d entries: auto = %v, want %v", z, tc.total, alg, tc.want)
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
		sorted := rng.Intn(2) == 0
		want, err := Add(as, Options{Algorithm: SlidingHash, SortedOutput: sorted})
		if err != nil {
			return false
		}
		opt := Options{SortedOutput: sorted, Threads: 1 + rng.Intn(3)}
		switch rng.Intn(4) {
		case 0:
			opt.Algorithm = Hash
		case 1:
			opt.Algorithm = SPA
		case 2:
			opt.Algorithm = Heap
		default:
			opt.Algorithm, opt.MaxTableEntries = SlidingHash, 1+rng.Intn(8)
		}
		got, err := Add(as, opt)
		if err != nil || got.Validate() != nil || !got.Equal(want) {
			return false
		}
		return !sorted || bitIdentical(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
