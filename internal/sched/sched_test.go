package sched

import (
	"slices"
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
	_, b := PartitionByWeightInto(weights, 4, nil, nil)
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
		_, b := PartitionByWeightInto(weights, 7, nil, nil)
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

func TestWeightedClampsWorkersToN(t *testing.T) {
	// More workers than indices: only worker ids below n may run, and
	// stealing must not hand an index to a worker the clamp left out.
	ex := NewExecutor()
	defer ex.Close()
	for _, n := range []int{1, 2, 3} {
		var mu sync.Mutex
		maxW := -1
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = 1
		}
		ex.Weighted(weights, 8, func(w, lo, hi int) {
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
	// the partition must fall back to Span instead. Weighted claims
	// each range in several chunks, so the bounds are checked at the
	// partitioner, and the region for exactly-once coverage.
	const n, th = 12, 4
	weights := make([]int64, n)
	_, bounds := PartitionByWeightInto(weights, th, nil, nil)
	for w := 0; w < th; w++ {
		if lo, hi := Span(n, th, w); bounds[w] != lo || bounds[w+1] != hi {
			t.Errorf("part %d is [%d, %d), want Span [%d, %d)", w, bounds[w], bounds[w+1], lo, hi)
		}
	}
	ex := NewExecutor()
	defer ex.Close()
	var rec chunkRecorder
	if _, err := ex.Weighted(weights, th, rec.body); err != nil {
		t.Fatalf("region error: %v", err)
	}
	verifyChunks(t, rec.chunks, n, th)
}

func TestPartitionByWeightIntoReusesScratch(t *testing.T) {
	weights := []int64{5, 1, 1, 1, 8, 1, 1, 1}
	prefix, bounds := PartitionByWeightInto(weights, 4, nil, nil)
	want := slices.Clone(bounds)
	allocs := testing.AllocsPerRun(20, func() {
		prefix, bounds = PartitionByWeightInto(weights, 4, prefix, bounds)
	})
	if allocs != 0 {
		t.Errorf("PartitionByWeightInto with adequate scratch allocates %.1f times, want 0", allocs)
	}
	if !slices.Equal(bounds, want) {
		t.Errorf("bounds with reused scratch %v differ from fresh %v", bounds, want)
	}
}

func TestWorkerIDsDistinct(t *testing.T) {
	// Each concurrent worker must receive a distinct id so callers can
	// index per-worker state safely.
	ex := NewExecutor()
	defer ex.Close()
	var mu sync.Mutex
	inUse := map[int]bool{}
	ok := true
	ex.Weighted(make([]int64, 64), 8, func(w, lo, hi int) {
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
