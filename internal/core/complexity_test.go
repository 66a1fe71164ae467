package core

import (
	"math"
	"testing"

	"spkadd/internal/matrix"
)

// These tests back the complexity claims of the paper's Table I with
// operation counters instead of wall time: work-efficiency of SPA and
// hash, the O(lg k) factor of the heap, and the extra data movement of
// the 2-way algorithms.

func totalNNZ(as []*matrix.CSC) int {
	n := 0
	for _, a := range as {
		n += a.NNZ()
	}
	return n
}

func TestWorkComplexitySPA(t *testing.T) {
	as := erInputs(16, 1000, 32, 20, 21)
	var st OpStats
	if _, err := Add(as, Options{Algorithm: SPA, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	in := int64(totalNNZ(as))
	// SPA runs single-pass and touches each input entry exactly once:
	// work is linear with constant exactly 1.
	if got := st.SPATouches.Load(); got != in {
		t.Errorf("SPA touches = %d, want exactly %d (one pass x input nnz)", got, in)
	}
}

func TestWorkComplexitySinglePass(t *testing.T) {
	// The single-pass engine must touch each input entry exactly once
	// (SPA) and never probe a symbolic table (Hash) — the operational
	// form of "reads each input exactly once".
	as := erInputs(16, 1000, 32, 20, 21)
	in := int64(totalNNZ(as))
	var st OpStats
	if _, err := Add(as, Options{Algorithm: SPA, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if got := st.SPATouches.Load(); got != in {
		t.Errorf("SPA touches = %d, want exactly %d (one pass)", got, in)
	}
	st = OpStats{}
	if _, err := Add(as, Options{Algorithm: Hash, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if got := st.SymProbes.Load(); got != 0 {
		t.Errorf("symbolic probes = %d, want 0", got)
	}
	if probes := st.HashProbes.Load(); probes < in {
		t.Errorf("hash probes = %d, below the one-pass floor %d", probes, in)
	}
	// And SlidingHash's two-pass driver does probe symbolically, so
	// the counter is known to work.
	st = OpStats{}
	if _, err := Add(as, Options{Algorithm: SlidingHash, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.SymProbes.Load() == 0 {
		t.Error("two-pass sliding hash reported zero symbolic probes")
	}
}

func TestWorkComplexityHash(t *testing.T) {
	as := erInputs(16, 1000, 32, 20, 22)
	in := int64(totalNNZ(as))
	// Single pass: one insert per input entry, O(1) expected probes
	// each at load factor 0.5 (allow 2.5x).
	var st OpStats
	if _, err := Add(as, Options{Algorithm: Hash, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if probes := st.HashProbes.Load(); probes < in || probes > int64(2.5*float64(in)) {
		t.Errorf("hash probes = %d for %d inserts: want O(1) per insert, at least 1", probes, in)
	}
	// SlidingHash's two passes insert every entry twice, once into a
	// symbolic table, so its symbolic probes alone reach the input
	// nnz.
	st = OpStats{}
	if _, err := Add(as, Options{Algorithm: SlidingHash, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	sym, probes := st.SymProbes.Load(), st.HashProbes.Load()
	if sym < in || probes < 2*in {
		t.Errorf("two-pass probes = %d (%d symbolic), below the floors %d and %d", probes, sym, 2*in, in)
	}
	if probes > int64(2.5*float64(2*in)) {
		t.Errorf("two-pass probes = %d for %d inserts: probing is not O(1)", probes, 2*in)
	}
}

func TestWorkComplexityHeapLogK(t *testing.T) {
	// Heap sift work per element should grow roughly like lg k.
	measure := func(k int) float64 {
		as := erInputs(k, 2000, 16, 32, uint64(23+k))
		var st OpStats
		if _, err := Add(as, Options{Algorithm: Heap, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		return float64(st.HeapOps.Load()) / float64(totalNNZ(as))
	}
	perElem4 := measure(4)
	perElem64 := measure(64)
	ratio := perElem64 / perElem4
	wantRatio := math.Log2(64) / math.Log2(4) // 3
	if ratio < wantRatio*0.5 || ratio > wantRatio*2.5 {
		t.Errorf("heap ops/element ratio k=64 vs k=4 is %.2f, want near %.1f (lg k scaling)", ratio, wantRatio)
	}
}

func TestDataMovementOrdering(t *testing.T) {
	// Table I, I/O column: incremental moves O(k^2 nd), tree
	// O(knd lg k), k-way O(knd). EntriesMoved counts entries written
	// to intermediate + final storage, a proxy for memory traffic.
	as := erInputs(16, 5000, 16, 16, 24)
	moved := func(alg Algorithm) int64 {
		var st OpStats
		if _, err := Add(as, Options{Algorithm: alg, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		return st.EntriesMoved.Load()
	}
	inc := moved(TwoWayIncremental)
	tree := moved(TwoWayTree)
	kway := moved(Hash)
	if !(inc > tree && tree > kway) {
		t.Errorf("entries moved: incremental=%d tree=%d kway=%d, want inc > tree > kway", inc, tree, kway)
	}
	// Incremental should be around k/2 the k-way traffic for ER (low
	// compression), tree around lg k; verify at least 2x separations.
	if inc < 3*kway {
		t.Errorf("incremental movement %d not >> k-way %d", inc, kway)
	}
	if tree < 2*kway {
		t.Errorf("tree movement %d not > k-way %d", tree, kway)
	}
}

func TestStatsResetBetweenRuns(t *testing.T) {
	as := erInputs(4, 200, 8, 10, 25)
	var st OpStats
	if _, err := Add(as, Options{Algorithm: Hash, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	first := st.HashProbes.Load()
	if _, err := Add(as, Options{Algorithm: Hash, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.HashProbes.Load() != 2*first {
		t.Errorf("stats accumulate incorrectly: %d then %d", first, st.HashProbes.Load())
	}
}
