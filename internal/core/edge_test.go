package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/generate"
	"spkadd/internal/hashtab"
	"spkadd/internal/matrix"
)

func TestSlidingCacheFormulaPath(t *testing.T) {
	// Exercise the parts = ceil(nnz*b*T/M) path (no explicit table
	// cap) with a cache small enough to force many partitions.
	as := erInputs(16, 4000, 12, 60, 41)
	want := matrix.ReferenceAdd(as)
	for _, cacheBytes := range []int64{1, 256, 4096, 1 << 30} {
		got, err := Add(as, Options{
			Algorithm:    SlidingHash,
			SortedOutput: true,
			CacheBytes:   cacheBytes,
			Threads:      2,
		})
		if err != nil {
			t.Fatalf("cache=%d: %v", cacheBytes, err)
		}
		if !got.Equal(want) {
			t.Errorf("cache=%d: wrong result", cacheBytes)
		}
	}
}

func TestSlidingPartsArithmetic(t *testing.T) {
	cases := []struct {
		nnz        int
		b          int64
		t          int
		cache      int64
		maxEntries int
		wantParts  int
	}{
		{0, 4, 8, 1 << 20, 0, 1},
		{100, 4, 1, 1 << 20, 0, 1},      // fits
		{1 << 20, 4, 8, 1 << 20, 0, 32}, // 4MB*8/1MB = 32
		{1000, 12, 1, 1 << 30, 100, 10}, // explicit cap wins
		{1001, 12, 1, 1 << 30, 100, 11}, // ceil
		{1, 4, 1, 1, 0, 4},              // degenerate tiny cache
	}
	for _, c := range cases {
		got := hashtab.SlidingParts(c.nnz, c.b, c.t, c.cache, c.maxEntries)
		if got != c.wantParts {
			t.Errorf("SlidingParts(%d,%d,%d,%d,%d) = %d, want %d",
				c.nnz, c.b, c.t, c.cache, c.maxEntries, got, c.wantParts)
		}
	}
}

func TestSingleRowAndSingleColumn(t *testing.T) {
	// m=1: every entry lands on row 0; n=1: one column holds all work.
	oneRow := []*matrix.CSC{
		matrix.FromTriples(1, 5, []matrix.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 4, Val: 2}}),
		matrix.FromTriples(1, 5, []matrix.Triple{{Row: 0, Col: 0, Val: 3}, {Row: 0, Col: 2, Val: 4}}),
	}
	oneCol := []*matrix.CSC{
		matrix.FromTriples(100, 1, []matrix.Triple{{Row: 7, Col: 0, Val: 1}, {Row: 42, Col: 0, Val: 2}}),
		matrix.FromTriples(100, 1, []matrix.Triple{{Row: 7, Col: 0, Val: 5}}),
	}
	for _, as := range [][]*matrix.CSC{oneRow, oneCol} {
		want := matrix.ReferenceAdd(as)
		for _, alg := range Algorithms {
			got, err := Add(as, Options{Algorithm: alg, SortedOutput: true, Threads: 3})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if !got.Equal(want) {
				t.Errorf("%v: wrong result on degenerate shape %dx%d", alg, as[0].Rows, as[0].Cols)
			}
		}
	}
}

func TestSymbolicVariantsAgree(t *testing.T) {
	// SlidingHash's symbolic kernel must report the true nnz(B(:,j))
	// however it partitions the column — one table, cache-sized row
	// ranges, or an explicit entry cap — and whether it bounds the
	// ranges by binary search (sorted inputs) or a filtering scan.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(8) + 2
		rows, cols := rng.Intn(200)+1, rng.Intn(10)+1
		as := make([]*matrix.CSC, k)
		for i := range as {
			coo := matrix.NewCOO(rows, cols)
			for e := 0; e < rng.Intn(60); e++ {
				coo.Append(matrix.Index(rng.Intn(rows)), matrix.Index(rng.Intn(cols)), 1)
			}
			as[i] = coo.ToCSC()
		}
		want := matrix.ReferenceAdd(as)
		w := &workerStateOf[matrix.Value]{}
		for j := 0; j < cols; j++ {
			inz := 0
			for _, a := range as {
				inz += a.ColNNZ(j)
			}
			for _, v := range []struct {
				cache      int64
				maxEntries int
				sortedIn   bool
			}{
				{1 << 30, 0, true}, {256, 0, true}, {256, 0, false}, {1 << 30, 3, true}, {1 << 30, 3, false},
			} {
				if slidingSymbolicCol(w, as, j, inz, 4, v.cache, v.maxEntries, v.sortedIn) != want.ColNNZ(j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSymbolicSizingMovesHighWater: SlidingHash's symbolic phase
// counts in the worker's one hash table, so sizing a part for a small
// table cap must move the high-water mark with the window. A stale
// mark would let the next band-checked request (Hash's, or a Mul on a
// resident workspace) reuse the part's tiny window for as many keys
// as the old mark, more than the window can hold.
func TestSymbolicSizingMovesHighWater(t *testing.T) {
	as := erInputs(4, 1000, 1, 50, 91)
	inz := 0
	for _, a := range as {
		inz += a.ColNNZ(0)
	}
	w := &workerStateOf[matrix.Value]{}
	w.hashTable(1000)
	slidingSymbolicCol(w, as, 0, inz, 1, DefaultCacheBytes, 8, allColumnsSorted(as))
	if got, want := w.hashTable(400).Cap(), hashtab.SizeFor(400); got < want {
		t.Errorf("hashTable(400) after a symbolic part capped at 8 entries: window %d, want >= %d", got, want)
	}
}

func TestManyMatrices(t *testing.T) {
	// k = 300: beyond any grid the paper tests; exercises heap depth
	// and per-matrix cursor reuse.
	k := 300
	as := make([]*matrix.CSC, k)
	for i := range as {
		as[i] = generate.ER(generate.Opts{Rows: 500, Cols: 4, NNZPerCol: 3, Seed: uint64(i + 1)})
	}
	want := matrix.ReferenceAdd(as)
	for _, alg := range []Algorithm{Heap, SPA, Hash, SlidingHash, TwoWayTree} {
		got, err := Add(as, Options{Algorithm: alg, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: wrong result at k=%d", alg, k)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	as := generate.RMATCollection(8, generate.Opts{Rows: 400, Cols: 16, NNZPerCol: 12, Seed: 44}, generate.Graph500)
	for _, alg := range []Algorithm{Hash, SlidingHash, SPA} {
		a1, err := Add(as, Options{Algorithm: alg, SortedOutput: true, Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Add(as, Options{Algorithm: alg, SortedOutput: true, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Sorted output must be bit-identical regardless of threading.
		if !a1.Equal(a2) {
			t.Errorf("%v: output depends on thread count", alg)
		}
		for p := range a1.RowIdx {
			if a1.RowIdx[p] != a2.RowIdx[p] || a1.Val[p] != a2.Val[p] {
				t.Fatalf("%v: layout differs at %d", alg, p)
			}
		}
	}
}
