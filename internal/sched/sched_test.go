package sched

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestSpanCoversExactly(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n, tt := int(nRaw), int(tRaw)%16+1
		prevHi := 0
		for w := 0; w < tt; w++ {
			lo, hi := Span(n, tt, w)
			if lo != prevHi || hi < lo {
				return false
			}
			prevHi = hi
		}
		return prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionByWeightBalance(t *testing.T) {
	// One giant column followed by many small ones: the giant column
	// should get (nearly) its own partition.
	weights := make([]int64, 101)
	weights[0] = 1_000_000
	for i := 1; i <= 100; i++ {
		weights[i] = 10
	}
	b := PartitionByWeight(weights, 4)
	if b[0] != 0 || b[4] != 101 {
		t.Fatalf("bounds %v must span the range", b)
	}
	if b[1] == 0 {
		t.Errorf("first boundary %v leaves part 0 empty despite giant weight", b)
	}
	// The first part must contain the giant column and little else.
	if b[1] > 2 {
		t.Errorf("giant column not isolated: bounds %v", b)
	}
}

func TestPartitionByWeightMonotone(t *testing.T) {
	f := func(seed int64) bool {
		weights := make([]int64, 50)
		s := uint64(seed)
		for i := range weights {
			s = s*6364136223846793005 + 1442695040888963407
			weights[i] = int64(s % 100)
		}
		b := PartitionByWeight(weights, 7)
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				return false
			}
		}
		return b[0] == 0 && b[len(b)-1] == len(weights)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDynamicClampsWorkersToN(t *testing.T) {
	// More workers than indices: only worker ids below n may run (the
	// old code spawned all t goroutines and let any of them win the
	// single chunk).
	ex := NewElasticExecutor()
	defer ex.Close()
	for _, n := range []int{1, 2, 3} {
		var mu sync.Mutex
		maxW := -1
		ex.Dynamic(n, 8, 0, func(w, lo, hi int) {
			mu.Lock()
			if w > maxW {
				maxW = w
			}
			mu.Unlock()
		})
		if maxW >= n {
			t.Errorf("n=%d: worker id %d ran, want ids < n", n, maxW)
		}
	}
}

func TestWeightedZeroWeightsFallsBackToSpan(t *testing.T) {
	// All-zero weights used to degenerate to one worker owning [0, n);
	// they must fall back to Span partitioning instead.
	const n, th = 12, 4
	ex := NewElasticExecutor()
	defer ex.Close()
	weights := make([]int64, n)
	var mu sync.Mutex
	got := map[int][2]int{}
	ex.Weighted(weights, th, func(w, lo, hi int) {
		mu.Lock()
		got[w] = [2]int{lo, hi}
		mu.Unlock()
	})
	if len(got) != th {
		t.Fatalf("%d workers ran, want %d (Span partitioning)", len(got), th)
	}
	for w, r := range got {
		lo, hi := Span(n, th, w)
		if r != [2]int{lo, hi} {
			t.Errorf("worker %d got [%d, %d), want Span [%d, %d)", w, r[0], r[1], lo, hi)
		}
	}
}

func TestPartitionByWeightIntoReusesScratch(t *testing.T) {
	weights := []int64{5, 1, 1, 1, 8, 1, 1, 1}
	prefix, bounds := PartitionByWeightInto(weights, 4, nil, nil)
	want := PartitionByWeight(weights, 4)
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("Into bounds %v differ from wrapper %v", bounds[:len(want)], want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		prefix, bounds = PartitionByWeightInto(weights, 4, prefix, bounds)
	})
	if allocs != 0 {
		t.Errorf("PartitionByWeightInto with adequate scratch allocates %.1f times, want 0", allocs)
	}
}

func TestWorkerIDsDistinct(t *testing.T) {
	// Each concurrent worker must receive a distinct id so callers can
	// index per-worker state safely.
	ex := NewElasticExecutor()
	defer ex.Close()
	var mu sync.Mutex
	inUse := map[int]bool{}
	ok := true
	ex.Static(64, 8, func(w, lo, hi int) {
		mu.Lock()
		if inUse[w] {
			ok = false
		}
		inUse[w] = true
		mu.Unlock()
		defer func() {
			mu.Lock()
			inUse[w] = false
			mu.Unlock()
		}()
		for i := lo; i < hi; i++ {
			_ = i
		}
	})
	if !ok {
		t.Error("worker id reused concurrently")
	}
}

func TestThreads(t *testing.T) {
	if Threads(0) < 1 || Threads(-3) < 1 {
		t.Error("Threads must be at least 1")
	}
	if Threads(5) != 5 {
		t.Error("explicit thread count not honored")
	}
}
