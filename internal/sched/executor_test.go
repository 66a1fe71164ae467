package sched

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spkadd/internal/faults/leakcheck"
)

// chunkRecorder collects every (worker, lo, hi) chunk a region
// executed, for exactly-once and disjointness checks.
type chunkRecorder struct {
	mu     sync.Mutex
	chunks []chunk
}

type chunk struct{ w, lo, hi int }

func (r *chunkRecorder) body(w, lo, hi int) {
	r.mu.Lock()
	r.chunks = append(r.chunks, chunk{w, lo, hi})
	r.mu.Unlock()
}

// verifyChunks asserts the recorded chunks are well-formed, mutually
// disjoint and cover [0, n) exactly once, with worker ids in
// [0, maxWorkers).
func verifyChunks(t *testing.T, chunks []chunk, n, maxWorkers int) {
	t.Helper()
	seen := make([]int, n)
	for _, c := range chunks {
		if c.lo >= c.hi {
			t.Fatalf("empty or inverted chunk [%d, %d)", c.lo, c.hi)
		}
		if c.lo < 0 || c.hi > n {
			t.Fatalf("chunk [%d, %d) outside [0, %d)", c.lo, c.hi, n)
		}
		if c.w < 0 || c.w >= maxWorkers {
			t.Fatalf("worker id %d outside [0, %d)", c.w, maxWorkers)
		}
		for i := c.lo; i < c.hi; i++ {
			seen[i]++
		}
	}
	for i, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("index %d executed %d times, want exactly once", i, cnt)
		}
	}
	// Sorted by lo, consecutive chunks must tile the range: monotone,
	// non-overlapping half-open ranges (this also holds on steal paths,
	// where a range is only ever split, never duplicated).
	sorted := append([]chunk(nil), chunks...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].lo < sorted[b].lo })
	next := 0
	for _, c := range sorted {
		if c.lo != next {
			t.Fatalf("chunk starts at %d, want %d (gap or overlap)", c.lo, next)
		}
		next = c.hi
	}
	if next != n {
		t.Fatalf("chunks end at %d, want %d", next, n)
	}
}

func skewedWeights(n int, seed uint64) []int64 {
	w := make([]int64, n)
	s := seed
	for i := range w {
		s = s*6364136223846793005 + 1442695040888963407
		w[i] = int64(s % 7)
		if s%31 == 0 {
			w[i] = 10_000 // occasional giant column, RMAT-style
		}
	}
	return w
}

// TestExecutorModesCover runs regions over skewed and all-zero
// weights on a grid of shapes and asserts exactly-once coverage with
// disjoint ranges. All-zero weights give equal blocks that carry no
// weight, so no worker has weight left to steal.
func TestExecutorModesCover(t *testing.T) {
	ex := NewExecutor()
	defer ex.Close()
	for _, n := range []int{0, 1, 2, 7, 64, 257} {
		weights := skewedWeights(n, uint64(n)+3)
		zero := make([]int64, n)
		for _, th := range []int{1, 2, 3, 8} {
			modes := map[string]func(*chunkRecorder) (LoadStats, error){
				"weighted": func(r *chunkRecorder) (LoadStats, error) { return ex.Weighted(weights, th, r.body) },
				"weighted-zero": func(r *chunkRecorder) (LoadStats, error) {
					return ex.Weighted(zero, th, r.body)
				},
			}
			for name, run := range modes {
				var rec chunkRecorder
				ls, err := run(&rec)
				if err != nil {
					t.Fatalf("%s n=%d t=%d: region error: %v", name, n, th, err)
				}
				verifyChunks(t, rec.chunks, n, max(th, 1))
				if n > 0 && ls.Workers < 1 {
					t.Errorf("%s n=%d t=%d: LoadStats.Workers = %d, want >= 1", name, n, th, ls.Workers)
				}
				if ls.Max < ls.Mean {
					t.Errorf("%s n=%d t=%d: Max %d < Mean %d", name, n, th, ls.Max, ls.Mean)
				}
				if name == "weighted-zero" && (ls.Max != 0 || ls.Mean != 0 || ls.Steals != 0) {
					t.Errorf("%s n=%d t=%d: LoadStats %+v, want Max == Mean == 0 and no steals", name, n, th, ls)
				}
			}
		}
	}
}

// TestExecutorReuseNoAlloc proves a warmed executor runs its regions
// without allocating — the point of keeping workers and partition
// scratch resident.
func TestExecutorReuseNoAlloc(t *testing.T) {
	ex := NewExecutor()
	defer ex.Close()
	const n, th = 256, 4
	weights := skewedWeights(n, 11)
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			_ = i
		}
	}
	run := func() { ex.Weighted(weights, th, body) }
	for warm := 0; warm < 3; warm++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warmed executor allocates %.1f times per region, want 0", allocs)
	}
}

// TestExecutorCloseRunsInline verifies a closed executor still
// executes regions — inline, single-worker — rather than hanging or
// panicking.
func TestExecutorCloseRunsInline(t *testing.T) {
	ex := NewExecutor()
	var rec chunkRecorder
	ex.Weighted(skewedWeights(32, 5), 4, rec.body)
	ex.Close()
	ex.Close() // idempotent
	rec.chunks = rec.chunks[:0]
	ls, err := ex.Weighted(skewedWeights(32, 5), 4, rec.body)
	if err != nil {
		t.Fatalf("region error: %v", err)
	}
	verifyChunks(t, rec.chunks, 32, 1)
	if ls.Workers != 1 {
		t.Errorf("closed executor ran %d workers, want 1 (inline)", ls.Workers)
	}
}

// TestExecutorCloseDuringRegion closes an executor from another
// goroutine while a region is in flight. Close must wait for the
// region's barrier, since the workers it releases are still running
// the body; the region must cover its range exactly once, the next
// region must run inline, and no worker may be left behind. Run under
// -race by the CI race job.
func TestExecutorCloseDuringRegion(t *testing.T) {
	leakcheck.Begin(t)
	ex := NewExecutor()
	const n, th = 64, 4
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var rec chunkRecorder
	regionDone := make(chan error, 1)
	go func() {
		_, err := ex.Weighted(make([]int64, n), th, func(w, lo, hi int) {
			once.Do(func() { close(started) })
			<-release
			rec.body(w, lo, hi)
		})
		regionDone <- err
	}()
	<-started
	closed := make(chan struct{})
	go func() {
		ex.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a region was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-regionDone; err != nil {
		t.Fatalf("region error: %v", err)
	}
	<-closed
	verifyChunks(t, rec.chunks, n, th)
	rec.chunks = rec.chunks[:0]
	ls, err := ex.Weighted(make([]int64, n), th, rec.body)
	if err != nil {
		t.Fatalf("region after Close: %v", err)
	}
	verifyChunks(t, rec.chunks, n, 1)
	if ls.Workers != 1 {
		t.Errorf("closed executor ran %d workers, want 1 (inline)", ls.Workers)
	}
}

// TestDroppedExecutorReclaimedAfterRegion pins the precondition of
// the cleanup backstop: a region must not leave its body reachable
// from the parked workers. A workspace's phase bodies are method
// values bound to the workspace that owns the executor, so a retained
// body would keep the handle alive and the dropped owner's workers
// parked forever.
func TestDroppedExecutorReclaimedAfterRegion(t *testing.T) {
	leakcheck.Begin(t)
	type owner struct {
		ex      *Executor
		covered atomic.Int64
	}
	o := &owner{ex: NewExecutor()}
	body := func(_, lo, hi int) { o.covered.Add(int64(hi - lo)) }
	if _, err := o.ex.Weighted(make([]int64, 8), 2, body); err != nil {
		t.Fatalf("region error: %v", err)
	}
	if got := o.covered.Load(); got != 8 {
		t.Fatalf("region covered %d of 8 items", got)
	}
	// o, body and the handle are dropped here; leakcheck's GC cycles
	// must run the cleanup and let the parked worker exit.
}

// TestExecutorStealOccurs forces the steal path: worker 0 stalls on
// its first chunk while worker 1 drains its own range, so worker 1
// must steal worker 0's remainder for the region to finish promptly.
func TestExecutorStealOccurs(t *testing.T) {
	ex := NewExecutor()
	defer ex.Close()
	const n = 200
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 1
	}
	var rec chunkRecorder
	stalled := false
	ls, err := ex.Weighted(weights, 2, func(w, lo, hi int) {
		if w == 0 && !stalled {
			stalled = true
			time.Sleep(20 * time.Millisecond)
		}
		rec.body(w, lo, hi)
	})
	if err != nil {
		t.Fatalf("region error: %v", err)
	}
	verifyChunks(t, rec.chunks, n, 2)
	if ls.Steals == 0 {
		t.Error("no steals recorded despite a stalled worker; LoadStats:", ls)
	}
	if ls.Max < ls.Mean || ls.Workers != 2 {
		t.Errorf("implausible LoadStats %+v", ls)
	}
}

// TestExecutorSharedConcurrent hammers one executor from many
// goroutines mixing skewed and all-zero weights; regions must
// serialize internally and each must still cover its range exactly
// once. Run under -race by the CI race job.
func TestExecutorSharedConcurrent(t *testing.T) {
	ex := NewExecutor()
	defer ex.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 50 + 30*g
			weights, zero := skewedWeights(n, uint64(g)), make([]int64, n)
			for iter := 0; iter < 20; iter++ {
				var rec chunkRecorder
				if (g+iter)%2 == 0 {
					ex.Weighted(zero, 3, rec.body)
				} else {
					ex.Weighted(weights, 3, rec.body)
				}
				verifyChunks(t, rec.chunks, n, 3)
			}
		}(g)
	}
	wg.Wait()
}

// FuzzExecutorCover fuzzes shape, thread count and weight seed over
// skewed and all-zero weights, asserting the exactly-once/disjointness
// invariant.
func FuzzExecutorCover(f *testing.F) {
	f.Add(uint16(64), uint8(4), uint64(1), uint8(0))
	f.Add(uint16(257), uint8(7), uint64(9), uint8(1))
	f.Add(uint16(33), uint8(2), uint64(3), uint8(2))
	f.Add(uint16(128), uint8(16), uint64(7), uint8(3))
	ex := NewExecutor()
	f.Cleanup(ex.Close)
	f.Fuzz(func(t *testing.T, nRaw uint16, thRaw uint8, seed uint64, mode uint8) {
		n := int(nRaw) % 512
		th := int(thRaw)%16 + 1
		weights := skewedWeights(n, seed)
		var rec chunkRecorder
		if mode%2 == 0 {
			ex.Weighted(make([]int64, n), th, rec.body)
		} else {
			ex.Weighted(weights, th, rec.body)
		}
		verifyChunks(t, rec.chunks, n, max(th, 1))
	})
}

// FuzzPartitionByWeight fuzzes the weighted partitioner: boundaries
// must be monotone, span [0, n], and fall back to Span partitioning
// when the total weight is zero.
func FuzzPartitionByWeight(f *testing.F) {
	f.Add(uint16(50), uint8(7), uint64(1))
	f.Add(uint16(0), uint8(1), uint64(2))
	f.Add(uint16(9), uint8(16), uint64(0))
	f.Fuzz(func(t *testing.T, nRaw uint16, tRaw uint8, seed uint64) {
		n := int(nRaw) % 300
		parts := int(tRaw)%12 + 1
		weights := make([]int64, n)
		total := int64(0)
		s := seed
		for i := range weights {
			s = s*6364136223846793005 + 1
			weights[i] = int64(s % 5)
			if seed == 0 {
				weights[i] = 0
			}
			total += weights[i]
		}
		_, bounds := PartitionByWeightInto(weights, parts, nil, nil)
		if len(bounds) != parts+1 {
			t.Fatalf("got %d bounds, want %d", len(bounds), parts+1)
		}
		if bounds[0] != 0 || bounds[parts] != n {
			t.Fatalf("bounds %v do not span [0, %d]", bounds, n)
		}
		for i := 1; i <= parts; i++ {
			if bounds[i] < bounds[i-1] {
				t.Fatalf("bounds %v not monotone", bounds)
			}
		}
		if total == 0 {
			for w := 0; w <= parts; w++ {
				if want, _ := Span(n, parts, w); w < parts && bounds[w] != want {
					t.Fatalf("zero-weight bounds %v, want Span partitioning", bounds)
				}
			}
		}
	})
}
