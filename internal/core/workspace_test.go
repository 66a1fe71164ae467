package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// wsTestCollection builds a small collection with the given shape.
func wsTestCollection(tb testing.TB, pattern string, k, rows, cols, d int, seed uint64) []*matrix.CSC {
	tb.Helper()
	o := generate.Opts{Rows: rows, Cols: cols, NNZPerCol: d, Seed: seed}
	if pattern == "RMAT" {
		return generate.RMATCollection(k, o, generate.Graph500)
	}
	return generate.ERCollection(k, o)
}

// requireIdentical asserts bit-identical CSC contents.
func requireIdentical(t *testing.T, got, want *matrix.CSC, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: dims %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if got.NNZ() != want.NNZ() {
		t.Fatalf("%s: nnz %d, want %d", label, got.NNZ(), want.NNZ())
	}
	for j := 0; j <= got.Cols; j++ {
		if got.ColPtr[j] != want.ColPtr[j] {
			t.Fatalf("%s: ColPtr[%d] = %d, want %d", label, j, got.ColPtr[j], want.ColPtr[j])
		}
	}
	for p := range got.RowIdx {
		if got.RowIdx[p] != want.RowIdx[p] || got.Val[p] != want.Val[p] {
			t.Fatalf("%s: entry %d = (%d,%v), want (%d,%v)",
				label, p, got.RowIdx[p], got.Val[p], want.RowIdx[p], want.Val[p])
		}
	}
}

// TestWorkspaceReuseParity drives ONE recycling workspace through a
// sequence of calls with changing shapes, algorithms (so both
// engines), thread counts and sortedness, comparing every result bit-for-bit against a
// fresh one-shot Add. Growing and then shrinking shapes is the point:
// stale counts, weights, extents or output prefixes from a larger
// earlier call must never leak into a smaller later one.
func TestWorkspaceReuseParity(t *testing.T) {
	ws := NewWorkspace(true)
	type shape struct {
		pattern       string
		k, rows, cols int
		d             int
	}
	shapes := []shape{
		{"ER", 8, 2048, 64, 16},                                                   // medium
		{"ER", 2, 128, 4, 2},                                                      // shrink everything
		{"RMAT", 16, 4096, 32, 8} /* grow again, skewed */, {"ER", 4, 64, 128, 1}, // wide and hypersparse
		{"ER", 3, 512, 16, 0}, // empty columns throughout
	}
	seed := uint64(100)
	for _, sorted := range []bool{true, false} {
		for _, base := range []Options{
			{Algorithm: Hash}, {Algorithm: SPA}, {Algorithm: Heap}, {Algorithm: Auto},
			{Algorithm: SlidingHash}, {Algorithm: SlidingHash, MaxTableEntries: 8},
		} {
			for _, th := range []int{1, 3} {
				for _, s := range shapes {
					seed++
					as := wsTestCollection(t, s.pattern, s.k, s.rows, s.cols, s.d, seed)
					opt := base
					opt.SortedOutput, opt.Threads = sorted, th
					name := fmt.Sprintf("%v/max=%d/sorted=%v/t=%d", opt.Algorithm, opt.MaxTableEntries, sorted, th)
					got, err := ws.Add(as, opt)
					if err != nil {
						t.Fatalf("%s %+v: %v", name, s, err)
					}
					want, err := Add(as, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !sorted {
						got, want = got.Clone().SortColumns(), want.Clone().SortColumns()
					}
					requireIdentical(t, got, want, name)
				}
			}
		}
	}
}

// TestWorkspaceStreamingSelfInput checks the documented streaming
// pattern: the previous call's recycled result is an input to the next
// call. The ping-pong output buffers must keep the running sum correct
// over many iterations.
func TestWorkspaceStreamingSelfInput(t *testing.T) {
	for _, alg := range []Algorithm{Hash, SlidingHash} {
		ws := NewWorkspace(true)
		rng := rand.New(rand.NewSource(7))
		var sum *matrix.CSC
		var ref *matrix.CSC
		for step := 0; step < 12; step++ {
			delta := generate.ER(generate.Opts{Rows: 600, Cols: 24, NNZPerCol: 1 + rng.Intn(12), Seed: uint64(step + 1)})
			opt := Options{Algorithm: alg, SortedOutput: true}
			var err error
			if sum == nil {
				sum, err = ws.Add([]*matrix.CSC{delta}, opt)
				ref = delta.Clone().SortColumns()
			} else {
				sum, err = ws.Add([]*matrix.CSC{sum, delta}, opt)
				if err != nil {
					t.Fatalf("%v step %d: %v", alg, step, err)
				}
				ref2, err2 := Add([]*matrix.CSC{ref, delta}, opt)
				if err2 != nil {
					t.Fatal(err2)
				}
				ref = ref2
				requireIdentical(t, sum, ref, alg.String())
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWorkspaceScaledAndStats checks AddScaled parity on a reused
// workspace and that work counters still flow when a workspace is
// reused.
func TestWorkspaceScaledAndStats(t *testing.T) {
	ws := NewWorkspace(true)
	as := wsTestCollection(t, "ER", 6, 1024, 32, 8, 55)
	coeffs := make([]matrix.Value, len(as))
	for i := range coeffs {
		coeffs[i] = matrix.Value(i+1) * 0.5
	}
	for _, alg := range []Algorithm{Hash, SlidingHash} {
		for rep := 0; rep < 3; rep++ {
			var st OpStats
			opt := Options{Algorithm: alg, SortedOutput: true, Stats: &st}
			got, err := ws.AddScaled(as, coeffs, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := AddScaled(as, coeffs, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, "scaled/"+alg.String())
			if st.HashProbes.Load() == 0 || st.EntriesMoved.Load() == 0 {
				t.Fatalf("%v rep %d: stats not accumulated (probes=%d moved=%d)",
					alg, rep, st.HashProbes.Load(), st.EntriesMoved.Load())
			}
			if alg == Hash && st.SymProbes.Load() != 0 {
				t.Fatalf("single-pass Hash reported %d symbolic probes", st.SymProbes.Load())
			}
		}
	}
}

// TestWorkspaceStatsNoLeak checks that a Stats-less call's work counts
// never reach a later call's Stats: the worker structures outlive the
// call, so their counters must be reset whether or not a call flushes
// them into a Stats.
func TestWorkspaceStatsNoLeak(t *testing.T) {
	as := wsTestCollection(t, "ER", 6, 1024, 32, 8, 55)
	upperBound := func(ws *Workspace) (probes, sym int64) {
		t.Helper()
		var st OpStats
		if _, err := ws.Add(as, Options{Algorithm: Hash, Threads: 1, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		return st.HashProbes.Load(), st.SymProbes.Load()
	}
	wantProbes, _ := upperBound(NewWorkspace(false))

	ws := NewWorkspace(false)
	if _, err := ws.Add(as, Options{Algorithm: SlidingHash, Threads: 1}); err != nil {
		t.Fatal(err)
	}
	probes, sym := upperBound(ws)
	if sym != 0 || probes != wantProbes {
		t.Fatalf("after a Stats-less two-pass call: sym=%d probes=%d, want sym=0 probes=%d", sym, probes, wantProbes)
	}
}

// TestAccumulatorRecycledSum checks the Accumulator against a
// reference sum now that its running total lives in recycled
// workspace buffers across many small-budget reductions.
func TestAccumulatorRecycledSum(t *testing.T) {
	rows, cols := 400, 20
	ac := NewAccumulator(rows, cols, 1<<12, Options{Algorithm: Hash, SortedOutput: true})
	var all []*matrix.CSC
	for i := 0; i < 17; i++ {
		a := generate.ER(generate.Opts{Rows: rows, Cols: cols, NNZPerCol: 6, Seed: uint64(i + 1)})
		all = append(all, a)
		if err := ac.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Add(all, Options{Algorithm: Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "accumulator")
	if ac.Reductions() < 2 {
		t.Fatalf("budget produced %d reductions; the test needs several to exercise recycling", ac.Reductions())
	}
	// The sum must also be safe to re-request and extend.
	more := generate.ER(generate.Opts{Rows: rows, Cols: cols, NNZPerCol: 3, Seed: 99})
	if err := ac.Push(more); err != nil {
		t.Fatal(err)
	}
	got2, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	want2, err := Add([]*matrix.CSC{want, more}, Options{Algorithm: Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got2, want2, "accumulator extended")
}

// TestWorkerStateLayout pins the pad that gives each worker's table,
// heap and SPA headers, which the kernels write per entry, cache lines
// of their own. A workspace holds its workers back to back in one
// slice, so each header must start at least a line into its element:
// then the line below it holds only the pad, whatever precedes the
// element (the previous worker's fields, or for worker 0 whatever
// object the allocator put before the slice) and whatever fields the
// struct gains. Headers that two workers write on one line make SPA
// and Heap run at one of two speeds (BenchmarkWorkspaceSpread).
func TestWorkerStateLayout(t *testing.T) {
	checkWorkerStateLayout[float64](t, "float64")
	checkWorkerStateLayout[float32](t, "float32")
	checkWorkerStateLayout[int32](t, "int32")
	checkWorkerStateLayout[int64](t, "int64")
	checkWorkerStateLayout[bool](t, "bool")
}

func checkWorkerStateLayout[T matrix.Number](t *testing.T, name string) {
	t.Helper()
	const line = 64
	var w workerStateOf[T]
	for _, f := range []struct {
		field string
		off   uintptr
	}{
		{"table", unsafe.Offsetof(w.table)},
		{"heap", unsafe.Offsetof(w.heap)},
		{"acc", unsafe.Offsetof(w.acc)},
	} {
		if f.off < line {
			t.Errorf("workerStateOf[%s].%s at offset %d, want >= %d", name, f.field, f.off, line)
		}
	}
}
