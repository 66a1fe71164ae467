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
// capacity, across both phases and engines.
func TestLoadFactorFullTables(t *testing.T) {
	as := erInputs(6, 300, 16, 10, 71)
	want := matrix.ReferenceAdd(as)
	for _, p := range PhasesPolicies {
		got, err := Add(as, Options{Algorithm: Hash, LoadFactor: 9, Phases: p, SortedOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: LoadFactor 9 (clamped to 1.0) gave a wrong sum", p)
		}
	}
}

// TestValidateRejectsUnknownEnums: an Algorithm or Phases value
// outside its constants has no driver behind it and must fail
// validation — one-shot, through a reused workspace at two threads,
// and on the single-input shortcut — rather than return an empty sum
// or run a two-pass engine that skips the DropIdentity check.
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
		{Phases: Phases(7)},
		{Phases: Phases(-1)},
		{Phases: Phases(7), Monoid: plusDrop},
	} {
		name := fmt.Sprintf("Algorithm(%d)/Phases(%d)", int(opt.Algorithm), int(opt.Phases))
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

// TestEngineUsedObservable proves the resolved execution engine is
// observable through OpStats — in particular the silent fallback:
// SlidingHash and the 2-way algorithms keep their native drivers
// whatever Options.Phases asks for, and that must show up as
// PhasesTwoPass rather than the caller's request.
func TestEngineUsedObservable(t *testing.T) {
	as := erInputs(4, 400, 16, 8, 72)
	for _, tc := range []struct {
		alg  Algorithm
		req  Phases
		want Phases
	}{
		{Hash, PhasesUpperBound, PhasesUpperBound},
		{Hash, PhasesTwoPass, PhasesTwoPass},
		{SPA, PhasesUpperBound, PhasesUpperBound},
		{Heap, PhasesUpperBound, PhasesUpperBound},
		// The fallbacks: requesting the single-pass engine on
		// algorithms that have none.
		{SlidingHash, PhasesUpperBound, PhasesTwoPass},
		{TwoWayTree, PhasesUpperBound, PhasesTwoPass},
		{TwoWayIncremental, PhasesUpperBound, PhasesTwoPass},
	} {
		var stats OpStats
		if _, ok := stats.EngineUsed(); ok {
			t.Fatal("fresh OpStats reports an engine before any addition")
		}
		_, err := Add(as, Options{Algorithm: tc.alg, Phases: tc.req, Stats: &stats})
		if err != nil {
			t.Fatalf("%v/%v: %v", tc.alg, tc.req, err)
		}
		got, ok := stats.EngineUsed()
		if !ok {
			t.Fatalf("%v/%v: no engine recorded", tc.alg, tc.req)
		}
		if got != tc.want {
			t.Errorf("%v requesting %v: ran %v, want %v", tc.alg, tc.req, got, tc.want)
		}
	}
	// PhasesAuto records whichever concrete engine it picked.
	var stats OpStats
	if _, err := Add(as, Options{Algorithm: Hash, Phases: PhasesAuto, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if got, ok := stats.EngineUsed(); !ok || got == PhasesAuto {
		t.Errorf("PhasesAuto recorded %v (ok=%v), want a concrete engine", got, ok)
	}
}

// TestEstimateSharedAcrossHeuristics pins autoSelect and pickPhases to
// the one shared workloadEstimate: the estimate's fields must equal
// the formulas the two heuristics historically computed independently,
// and both decisions must flip exactly at the thresholds the shared
// estimate predicts — so the heuristics can no longer drift apart.
func TestEstimateSharedAcrossHeuristics(t *testing.T) {
	for _, tc := range []struct{ k, rows, cols, d int }{
		{4, 300, 8, 20},
		{8, 100000, 64, 16},
		{2, 50, 5, 3},
	} {
		as := erInputs(tc.k, tc.rows, tc.cols, tc.d, 81)
		est := estimateWorkload(as)

		total := 0
		for _, a := range as {
			total += a.NNZ()
		}
		if est.k != tc.k || est.rows != tc.rows || est.cols != tc.cols || est.total != int64(total) {
			t.Fatalf("estimate shape = (%d, %d, %d, %d), want (%d, %d, %d, %d)",
				est.k, est.rows, est.cols, est.total, tc.k, tc.rows, tc.cols, total)
		}
		avg := float64(total) / float64(tc.cols)
		if est.avgColNNZ != avg {
			t.Errorf("avgColNNZ = %g, want %g", est.avgColNNZ, avg)
		}

		// autoSelect flips Hash -> SlidingHash exactly at the symbolic
		// table footprint the shared estimate predicts.
		threads := sched.Threads(1)
		memSym := int64(est.avgColNNZ) * BytesPerSymbolicEntry * int64(threads)
		if alg := autoSelect(est, Options{Threads: 1, CacheBytes: memSym}); alg != Hash {
			t.Errorf("at exactly the footprint: auto = %v, want Hash", alg)
		}
		if alg := autoSelect(est, Options{Threads: 1, CacheBytes: memSym - 1}); alg != SlidingHash {
			t.Errorf("one byte under: auto = %v, want SlidingHash", alg)
		}

		// pickPhases flips Hash's engine to TwoPass at the numeric
		// footprint from the same estimate.
		memNum := int64(est.avgColNNZ) * BytesPerAddEntry * int64(threads)
		if p := pickPhases(est, Hash, Options{Threads: 1, CacheBytes: memNum - 1}); p != PhasesTwoPass {
			t.Errorf("under numeric footprint: engine = %v, want TwoPass", p)
		}
		if p := pickPhases(est, Hash, Options{Threads: 1, CacheBytes: memNum}); p != PhasesUpperBound {
			t.Errorf("at numeric footprint: engine = %v, want UpperBound", p)
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
