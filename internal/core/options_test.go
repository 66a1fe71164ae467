package core

import (
	"fmt"
	"testing"

	"spkadd/internal/matrix"
	"spkadd/internal/ops"
	"spkadd/internal/sched"
)

func TestLoadFactorClamp(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want float64
	}{
		{0, 0.5},  // unset: default
		{-3, 0.5}, // nonsense: default
		{0.25, 0.25},
		{0.9, 0.9},
		{1, 1},
		{1.0001, 1}, // above the valid range: clamp, don't reset
		{9, 1},      // the typo'd-0.9 case from the issue
	} {
		if got := (Options{LoadFactor: tc.in}).loadFactor(); got != tc.want {
			t.Errorf("loadFactor(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestLoadFactorFullTables proves the clamped 1.0 load factor is
// actually usable: results stay correct when tables are packed to
// capacity, on both engines — Hash's single pass and SlidingHash's
// symbolic and numeric tables.
func TestLoadFactorFullTables(t *testing.T) {
	as := erInputs(6, 300, 16, 10, 71)
	want := matrix.ReferenceAdd(as)
	for _, alg := range []Algorithm{Hash, SlidingHash} {
		got, err := Add(as, Options{Algorithm: alg, LoadFactor: 9, SortedOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: LoadFactor 9 (clamped to 1.0) gave a wrong sum", alg)
		}
	}
}

// TestValidateRejectsUnknownEnums: an Algorithm value outside its
// constants has no driver behind it and must fail validation —
// one-shot, through a reused workspace at two threads, and on the
// single-input shortcut — rather than return an empty sum, with or
// without a generic monoid.
func TestValidateRejectsUnknownEnums(t *testing.T) {
	as := erInputs(4, 300, 16, 8, 75)
	plusDrop := &ops.Monoid{
		Name:         "PlusDrop",
		Combine:      func(a, b matrix.Value) matrix.Value { return a + b },
		DropIdentity: true,
	}
	for _, opt := range []Options{
		{Algorithm: Algorithm(99)},
		{Algorithm: Algorithm(-1)},
		{Algorithm: Algorithm(99), Monoid: plusDrop},
	} {
		name := fmt.Sprintf("Algorithm(%d)", int(opt.Algorithm))
		if opt.Monoid != nil {
			name += "/" + opt.Monoid.Name
		}
		if got, err := Add(as, opt); err == nil {
			t.Errorf("%s: Add returned %d entries and no error", name, got.NNZ())
		}
		if got, err := Add(as[:1], opt); err == nil {
			t.Errorf("%s: single-input Add returned %d entries and no error", name, got.NNZ())
		}
		opt.Threads = 2
		ws := NewWorkspace(true)
		if got, err := ws.Add(as, opt); err == nil {
			t.Errorf("%s: workspace Add at Threads 2 returned %d entries and no error", name, got.NNZ())
		}
	}
}

// TestEngineUsedObservable proves the engine a call ran is observable
// through OpStats. The algorithm decides it — Hash, SPA and Heap run
// single-pass, SlidingHash and the 2-way algorithms two-pass — and
// Auto reports whichever way it resolved.
func TestEngineUsedObservable(t *testing.T) {
	as := erInputs(4, 400, 16, 8, 72)
	for _, tc := range []struct {
		alg  Algorithm
		want Phases
	}{
		{Hash, PhasesUpperBound},
		{SPA, PhasesUpperBound},
		{Heap, PhasesUpperBound},
		{SlidingHash, PhasesTwoPass},
		{TwoWayTree, PhasesTwoPass},
		{TwoWayIncremental, PhasesTwoPass},
		{Auto, PhasesUpperBound},
	} {
		var stats OpStats
		if _, ok := stats.EngineUsed(); ok {
			t.Fatal("fresh OpStats reports an engine before any addition")
		}
		if _, err := Add(as, Options{Algorithm: tc.alg, Stats: &stats}); err != nil {
			t.Fatalf("%v: %v", tc.alg, err)
		}
		got, ok := stats.EngineUsed()
		if !ok {
			t.Fatalf("%v: no engine recorded", tc.alg)
		}
		if got != tc.want {
			t.Errorf("%v: ran %v, want %v", tc.alg, got, tc.want)
		}
	}
}

// TestEstimateSharedAcrossHeuristics pins the footprint side of Auto's
// one rule (TestPhasesAutoPolicy pins the staging side): autoSelect
// flips Hash to SlidingHash exactly where kd 4-byte symbolic slots per
// thread exceed CacheBytes, for float64 and float32, and validate
// resolves Auto to that same answer — except that a DropIdentity
// monoid keeps Hash, the algorithm that can drop entries.
func TestEstimateSharedAcrossHeuristics(t *testing.T) {
	autoFootprint[float64](t)
	autoFootprint[float32](t)
}

func autoFootprint[T matrix.Number](t *testing.T) {
	var z T
	drop := &ops.MonoidOf[T]{Name: "FirstDrop", Combine: func(a, _ T) T { return a }, DropIdentity: true}
	for _, tc := range []struct{ k, rows, cols, d, threads int }{
		{4, 300, 8, 20, 1},
		{8, 100000, 64, 16, 1},
		{2, 50, 5, 3, 3},
	} {
		as := convertAll[T](erInputs(tc.k, tc.rows, tc.cols, tc.d, 81))
		var total int64
		for _, a := range as {
			total += int64(a.NNZ())
		}
		footprint := total / int64(tc.cols) * BytesPerSymbolicEntry * int64(sched.Threads(tc.threads))
		for _, c := range []struct {
			cache int64
			want  Algorithm
		}{{footprint, Hash}, {footprint - 1, SlidingHash}} {
			opt := OptionsOf[T]{Threads: tc.threads, CacheBytes: c.cache}
			if alg := autoSelect(as, opt); alg != c.want {
				t.Errorf("%T %+v, cache %d: auto = %v, want %v", z, tc, c.cache, alg, c.want)
			}
			p, err := opt.validate(as, nil, 0)
			if err != nil || p.alg != c.want {
				t.Errorf("%T %+v, cache %d: validate resolved %v (%v), want %v", z, tc, c.cache, p.alg, err, c.want)
			}
			opt.Monoid = drop
			if p, err := opt.validate(as, nil, 0); err != nil || p.alg != Hash {
				t.Errorf("%T %+v, cache %d, DropIdentity: validate resolved %v (%v), want Hash", z, tc, c.cache, p.alg, err)
			}
		}
	}
}

// TestPlanResolveAllocFree enforces that plan resolution — validate,
// the per-call planning work every Adder call pays — allocates
// nothing. BenchmarkPlanResolve reports the same property with
// timings; this test enforces it on every `go test` run (validate is
// unexported, so the root-package CI gate cannot see it directly).
func TestPlanResolveAllocFree(t *testing.T) {
	as := erInputs(8, 1<<11, 64, 4, 21)
	opt := Options{Threads: 1}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := opt.validate(as, nil, 0); err != nil {
			panic(err)
		}
	}); avg != 0 {
		t.Errorf("plan resolution: %g allocs/op, want 0", avg)
	}
}

// BenchmarkPlanResolve times plan resolution, reporting allocations
// (0 allocs/op, enforced by TestPlanResolveAllocFree).
func BenchmarkPlanResolve(b *testing.B) {
	as := erInputs(8, 1<<11, 64, 4, 21)
	opt := Options{Threads: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := opt.validate(as, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
