package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
	"spkadd/internal/ops"
)

// The monoid parity suite: every built-in monoid must produce
// bit-identical results across {Hash, SPA, Heap} × {TwoPass,
// UpperBound} with SortedOutput, all matching a dense reference that
// combines in the same deterministic per-cell order (matrix order —
// the order the hash insert sequence, the SPA insert sequence and the
// heap's Mat tie-break all share).

// monoidReference folds the inputs cell by cell with the monoid,
// combining colliding entries in matrix order (and position order
// within a matrix), exactly like every engine.
func monoidReference(as []*matrix.CSC, m *ops.Monoid) *matrix.CSC {
	rows, cols := as[0].Rows, as[0].Cols
	present := make([]bool, rows*cols)
	vals := make([]matrix.Value, rows*cols)
	for _, a := range as {
		for j := 0; j < cols; j++ {
			rr, vv := a.ColRows(j), a.ColVals(j)
			for p := range rr {
				v := vv[p]
				if m.MapInput != nil {
					v = m.MapInput(v)
				}
				cell := int(rr[p])*cols + j
				if present[cell] {
					vals[cell] = m.Combine(vals[cell], v)
				} else {
					present[cell], vals[cell] = true, v
				}
			}
		}
	}
	out := &matrix.CSC{Rows: rows, Cols: cols, ColPtr: make([]int64, cols+1)}
	for j := 0; j < cols; j++ {
		out.ColPtr[j+1] = out.ColPtr[j]
		for r := 0; r < rows; r++ {
			cell := r*cols + j
			if !present[cell] || (m.DropIdentity && vals[cell] == m.Identity) {
				continue
			}
			out.RowIdx = append(out.RowIdx, matrix.Index(r))
			out.Val = append(out.Val, vals[cell])
			out.ColPtr[j+1]++
		}
	}
	return out
}

func monoidInputs() map[string][]*matrix.CSC {
	return map[string][]*matrix.CSC{
		"ER":   erInputs(7, 500, 20, 14, 171),
		"RMAT": generate.RMATCollection(5, generate.Opts{Rows: 400, Cols: 16, NNZPerCol: 10, Seed: 172}, generate.Graph500),
	}
}

// bitIdentical reports exact structural and value-bit equality,
// stricter than Equal (which compares columns as sets).
func bitIdentical(a, b *matrix.CSC) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for j := range a.ColPtr {
		if a.ColPtr[j] != b.ColPtr[j] {
			return false
		}
	}
	for p := range a.RowIdx {
		if a.RowIdx[p] != b.RowIdx[p] || a.Val[p] != b.Val[p] {
			return false
		}
	}
	return true
}

// TestMonoidEngineParity holds both engines to every monoid: the
// single pass of Hash, SPA and Heap must match the dense reference
// and be bit-identical to SlidingHash's two-pass result.
func TestMonoidEngineParity(t *testing.T) {
	for pattern, as := range monoidInputs() {
		for _, m := range ops.Builtins {
			want := monoidReference(as, m)
			var first *matrix.CSC
			for _, alg := range []Algorithm{SlidingHash, Hash, SPA, Heap} {
				name := fmt.Sprintf("%s/%s/%v", pattern, m.Name, alg)
				got, err := Add(as, Options{
					Algorithm: alg, Monoid: m,
					SortedOutput: true, Threads: 3,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: invalid output: %v", name, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s: differs from dense reference", name)
				}
				if first == nil {
					first = got
				} else if !bitIdentical(got, first) {
					t.Errorf("%s: not bit-identical to the two-pass SlidingHash result", name)
				}
			}
		}
	}
}

// TestMonoidSlidingHash covers the remaining k-way algorithm: sliding
// hash keeps the two-pass driver but supports every monoid, including
// under forced multi-part partitioning.
func TestMonoidSlidingHash(t *testing.T) {
	as := erInputs(6, 300, 12, 20, 173)
	for _, m := range ops.Builtins {
		want := monoidReference(as, m)
		for _, maxEntries := range []int{0, 7} {
			got, err := Add(as, Options{
				Algorithm: SlidingHash, Monoid: m, SortedOutput: true,
				MaxTableEntries: maxEntries, Threads: 2,
			})
			if err != nil {
				t.Fatalf("%s/max=%d: %v", m.Name, maxEntries, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s/max=%d: differs from dense reference", m.Name, maxEntries)
			}
		}
	}
}

// TestMonoidSingleInput: k=1 keeps the copy shortcut for Plus, but a
// mapping monoid must still transform values (Count of one snapshot
// is all ones) — so non-Plus single-input calls run the engines.
func TestMonoidSingleInput(t *testing.T) {
	a := erInputs(1, 200, 8, 6, 174)
	for _, m := range ops.Builtins {
		want := monoidReference(a, m)
		got, err := Add(a, Options{Monoid: m, SortedOutput: true})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: single-input result differs from reference", m.Name)
		}
	}
}

// TestMonoidDropIdentity: the drop-identity output policy removes
// exact-identity results on the single-pass engine and is rejected
// where values are not seen before output sizing.
func TestMonoidDropIdentity(t *testing.T) {
	plusDrop := &ops.Monoid{
		Name:         "PlusDrop",
		Identity:     0,
		Combine:      func(a, b matrix.Value) matrix.Value { return a + b },
		DropIdentity: true,
	}
	a := matrix.FromTriples(6, 2, []matrix.Triple{
		{Row: 1, Col: 0, Val: 3}, {Row: 4, Col: 0, Val: -2}, {Row: 2, Col: 1, Val: 7},
	})
	b := matrix.FromTriples(6, 2, []matrix.Triple{
		{Row: 1, Col: 0, Val: -3}, {Row: 4, Col: 0, Val: 5}, {Row: 5, Col: 1, Val: 1},
	})
	as := []*matrix.CSC{a, b}
	want := monoidReference(as, plusDrop) // row 1 cancels and is dropped
	if want.NNZ() != 3 {
		t.Fatalf("reference nnz = %d, want 3 (one cancellation dropped)", want.NNZ())
	}
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		got, err := Add(as, Options{Algorithm: alg, Monoid: plusDrop, SortedOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: identity entries not dropped (nnz=%d)", alg, got.NNZ())
		}
	}
	// SlidingHash's two-pass driver sizes the output before values
	// exist, so it cannot drop entries.
	if _, err := Add(as, Options{Algorithm: SlidingHash, Monoid: plusDrop}); !errors.Is(err, ErrMonoidUnsupported) {
		t.Errorf("SlidingHash with DropIdentity: %v, want ErrMonoidUnsupported", err)
	}
	// A cache too small for hash tables makes Algorithm Auto pick
	// SlidingHash; an unpinned DropIdentity call must resolve to Hash
	// instead of being rejected.
	got, err := Add(as, Options{Monoid: plusDrop, CacheBytes: 8})
	if err != nil {
		t.Fatalf("Auto with DropIdentity and a tiny cache: %v", err)
	}
	if !got.Equal(want) {
		t.Errorf("Auto with DropIdentity and a tiny cache: identity entries not dropped (nnz=%d)", got.NNZ())
	}
}

// TestMonoidValidation exercises the centralized option validation:
// the same typed errors must come back from every entry point.
func TestMonoidValidation(t *testing.T) {
	as := erInputs(3, 100, 6, 4, 175)
	if _, err := AddScaled(as, []matrix.Value{1, 2, 3}, Options{Monoid: ops.Count}); !errors.Is(err, ErrCoeffsRequirePlus) {
		t.Errorf("coeffs+Count: %v, want ErrCoeffsRequirePlus", err)
	}
	for _, alg := range []Algorithm{TwoWayIncremental, TwoWayTree, MapIncremental, MapTree} {
		if _, err := Add(as, Options{Algorithm: alg, Monoid: ops.Min}); !errors.Is(err, ErrMonoidUnsupported) {
			t.Errorf("%v+Min: %v, want ErrMonoidUnsupported", alg, err)
		}
	}
	if _, err := Add(as, Options{Monoid: &ops.Monoid{Name: "broken"}}); !errors.Is(err, ErrMonoidUnsupported) {
		t.Error("monoid without Combine accepted")
	}
	// Sortedness requirements hold on the generic path too.
	unsorted := []*matrix.CSC{shuffledCopy(as[0]), shuffledCopy(as[1])}
	if _, err := Add(unsorted, Options{Algorithm: Heap, Monoid: ops.Max}); !errors.Is(err, ErrUnsortedInput) {
		t.Errorf("Heap+Max over unsorted: %v, want ErrUnsortedInput", err)
	}
	// The same checks guard the streaming entry points (Accumulator
	// reductions funnel through the same validate).
	ac := NewAccumulator(100, 6, 0, Options{Algorithm: TwoWayTree, Monoid: ops.Any})
	for _, a := range as {
		if err := ac.Push(a); err != nil && !errors.Is(err, ErrMonoidUnsupported) {
			t.Fatalf("Push: %v", err)
		}
	}
	if _, err := ac.Sum(); !errors.Is(err, ErrMonoidUnsupported) {
		t.Errorf("Accumulator 2-way+Any Sum: %v, want ErrMonoidUnsupported", err)
	}
}

// shuffledCopy returns a clone with each column's entries rotated so
// the matrix is no longer column-sorted (but identical as a set).
func shuffledCopy(a *matrix.CSC) *matrix.CSC {
	b := a.Clone()
	for j := 0; j < b.Cols; j++ {
		lo, hi := b.ColPtr[j], b.ColPtr[j+1]
		if hi-lo < 2 {
			continue
		}
		r0, v0 := b.RowIdx[lo], b.Val[lo]
		copy(b.RowIdx[lo:hi-1], b.RowIdx[lo+1:hi])
		copy(b.Val[lo:hi-1], b.Val[lo+1:hi])
		b.RowIdx[hi-1], b.Val[hi-1] = r0, v0
	}
	return b
}

// TestMonoidStats: the resolved monoid is observable through OpStats
// like the resolved engine.
func TestMonoidStats(t *testing.T) {
	as := erInputs(3, 100, 6, 4, 176)
	var st OpStats
	if _, ok := st.MonoidUsed(); ok {
		t.Error("MonoidUsed reported a monoid before any dispatch")
	}
	if _, err := Add(as, Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if m, ok := st.MonoidUsed(); !ok || m != ops.Plus {
		t.Errorf("MonoidUsed = %v,%v want Plus (nil resolves to Plus)", m, ok)
	}
	if _, err := Add(as, Options{Monoid: ops.Count, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if m, ok := st.MonoidUsed(); !ok || m != ops.Count {
		t.Errorf("MonoidUsed = %v,%v want Count", m, ok)
	}
}

// TestAccumulatorMonoid: streaming reductions must match the one-shot
// result for mapped monoids — the premapped running-sum prefix is what
// keeps Count counting instead of collapsing back to 1 every flush.
func TestAccumulatorMonoid(t *testing.T) {
	as := erInputs(9, 300, 10, 8, 177)
	for _, m := range []*ops.Monoid{ops.Count, ops.Any, ops.Min, ops.Max} {
		want := monoidReference(as, m)
		// A 1-byte budget forces a reduction on almost every push, so
		// the sum re-enters many reductions.
		ac := NewAccumulator(300, 10, 1, Options{Algorithm: Hash, Monoid: m})
		for _, a := range as {
			if err := ac.Push(a); err != nil {
				t.Fatalf("%s: Push: %v", m.Name, err)
			}
		}
		got, err := ac.Sum()
		if err != nil {
			t.Fatalf("%s: Sum: %v", m.Name, err)
		}
		if ac.Reductions() < 2 {
			t.Fatalf("%s: only %d reductions; budget did not force streaming", m.Name, ac.Reductions())
		}
		if !got.Equal(want) {
			t.Errorf("%s: streamed result differs from one-shot reference", m.Name)
		}
	}
}

// TestPoolMonoid is TestAccumulatorMonoid for the sharded pool: each
// shard's running sum is premapped in its reductions.
func TestPoolMonoid(t *testing.T) {
	as := erInputs(8, 256, 12, 6, 178)
	for _, m := range []*ops.Monoid{ops.Count, ops.Any} {
		want := monoidReference(as, m)
		p := NewPool(256, 12, PoolOptions{
			Shards:      3,
			BudgetBytes: 3, // 1 byte per shard: reduce on nearly every push
			Add:         Options{Algorithm: Hash, Monoid: m},
		})
		for _, a := range as {
			if err := p.Push(a); err != nil {
				t.Fatalf("%s: Push: %v", m.Name, err)
			}
		}
		got, err := p.Sum()
		if err != nil {
			t.Fatalf("%s: Sum: %v", m.Name, err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("%s: Close: %v", m.Name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: pooled result differs from one-shot reference", m.Name)
		}
	}
}

// --- Random-monoid property test and fuzz target ---

// propOps are the candidate combine operations, all associative and
// commutative (multiplication stays exact on the small integer values
// propInputs generates).
var propOps = []struct {
	name string
	f    func(a, b matrix.Value) matrix.Value
}{
	{"sum", func(a, b matrix.Value) matrix.Value { return a + b }},
	{"min", func(a, b matrix.Value) matrix.Value { return min(a, b) }},
	{"max", func(a, b matrix.Value) matrix.Value { return max(a, b) }},
	{"prod", func(a, b matrix.Value) matrix.Value { return a * b }},
}

// propInputs builds k random matrices with small integer values, so
// every candidate op is exact whatever the combine order.
func propInputs(rng *rand.Rand, k, rows, cols, d int) []*matrix.CSC {
	as := make([]*matrix.CSC, k)
	for i := range as {
		var ts []matrix.Triple
		for j := 0; j < cols; j++ {
			for e := 0; e < d; e++ {
				ts = append(ts, matrix.Triple{
					Row: matrix.Index(rng.Intn(rows)),
					Col: matrix.Index(j),
					Val: matrix.Value(rng.Intn(7) + 1),
				})
			}
		}
		as[i] = matrix.FromTriples(rows, cols, ts)
	}
	return as
}

// checkMonoidParity asserts that every k-way algorithm, on either
// engine, produces the identical (bit-for-bit, sorted) result under m,
// and that it matches the dense reference.
func checkMonoidParity(t *testing.T, as []*matrix.CSC, m *ops.Monoid) {
	t.Helper()
	want := monoidReference(as, m)
	var first *matrix.CSC
	for _, alg := range []Algorithm{SlidingHash, Hash, SPA, Heap} {
		got, err := Add(as, Options{Algorithm: alg, Monoid: m, SortedOutput: true, Threads: 2})
		if err != nil {
			t.Fatalf("%s/%v: %v", m.Name, alg, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s/%v: differs from dense reference", m.Name, alg)
		}
		if first == nil {
			first = got
		} else if !bitIdentical(got, first) {
			t.Fatalf("%s/%v: algorithms disagree bit-for-bit", m.Name, alg)
		}
	}
	// Partitioned SlidingHash folds each row in the same order, so it
	// must agree bit for bit too.
	got, err := Add(as, Options{Algorithm: SlidingHash, Monoid: m, SortedOutput: true, MaxTableEntries: 5})
	if err != nil {
		t.Fatalf("%s/SlidingHash: %v", m.Name, err)
	}
	if !bitIdentical(got, first) {
		t.Fatalf("%s/SlidingHash: partitioned result differs bit-for-bit", m.Name)
	}
}

// propMonoid builds one random associative-commutative monoid.
func propMonoid(opIdx int, mapped, drop bool) *ops.Monoid {
	op := propOps[opIdx%len(propOps)]
	m := &ops.Monoid{
		Name:    fmt.Sprintf("prop-%s-mapped=%v-drop=%v", op.name, mapped, drop),
		Combine: op.f,
	}
	switch op.name {
	case "min":
		m.Identity = 1 << 30
	case "max":
		m.Identity = -(1 << 30)
	case "prod":
		m.Identity = 1
	}
	if mapped {
		m.MapInput = func(matrix.Value) matrix.Value { return 1 }
	}
	m.DropIdentity = drop
	return m
}

// TestMonoidPropertyRandom is the deterministic property test: random
// associative-commutative monoids over random inputs produce
// engine-identical results with SortedOutput.
func TestMonoidPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(428))
	for trial := 0; trial < 24; trial++ {
		k := rng.Intn(5) + 2
		as := propInputs(rng, k, rng.Intn(150)+20, rng.Intn(10)+2, rng.Intn(6)+1)
		m := propMonoid(rng.Intn(len(propOps)), rng.Intn(2) == 1, false)
		checkMonoidParity(t, as, m)
	}
}

// FuzzMonoidEngineParity is the fuzzing form of the property test:
// the fuzzer picks the monoid shape and the input distribution.
func FuzzMonoidEngineParity(f *testing.F) {
	f.Add(uint8(0), false, int64(1), uint8(3), uint8(4))
	f.Add(uint8(1), true, int64(2), uint8(5), uint8(1))
	f.Add(uint8(3), false, int64(3), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, opIdx uint8, mapped bool, seed int64, k, d uint8) {
		if k == 0 || k > 12 || d == 0 || d > 16 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		as := propInputs(rng, int(k), 100, 8, int(d))
		checkMonoidParity(t, as, propMonoid(int(opIdx), mapped, false))
	})
}

// TestMonoidReferenceSane pins the reference helper itself on a tiny
// hand-checked example, so the parity suite is not comparing two
// implementations of the same mistake.
func TestMonoidReferenceSane(t *testing.T) {
	a := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 0, Col: 0, Val: 5}, {Row: 2, Col: 0, Val: 3}})
	b := matrix.FromTriples(4, 1, []matrix.Triple{{Row: 2, Col: 0, Val: 8}})
	as := []*matrix.CSC{a, b}
	check := func(m *ops.Monoid, wantRows []matrix.Index, wantVals []matrix.Value) {
		t.Helper()
		got := monoidReference(as, m)
		if int(got.NNZ()) != len(wantRows) {
			t.Fatalf("%s: nnz = %d, want %d", m.Name, got.NNZ(), len(wantRows))
		}
		rows, vals := got.ColRows(0), got.ColVals(0)
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return rows[idx[x]] < rows[idx[y]] })
		for i, p := range idx {
			if rows[p] != wantRows[i] || vals[p] != wantVals[i] {
				t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)", m.Name, i, rows[p], vals[p], wantRows[i], wantVals[i])
			}
		}
	}
	check(ops.Plus, []matrix.Index{0, 2}, []matrix.Value{5, 11})
	check(ops.Min, []matrix.Index{0, 2}, []matrix.Value{5, 3})
	check(ops.Max, []matrix.Index{0, 2}, []matrix.Value{5, 8})
	check(ops.Any, []matrix.Index{0, 2}, []matrix.Value{1, 1})
	check(ops.Count, []matrix.Index{0, 2}, []matrix.Value{1, 2})
}
