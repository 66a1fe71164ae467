package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spkadd/internal/faults/leakcheck"
	"spkadd/internal/matrix"
	"spkadd/internal/ops"
)

func TestPoolMatchesOneShot(t *testing.T) {
	leakcheck.Begin(t)
	as := erInputs(20, 600, 24, 10, 61)
	want := matrix.ReferenceAdd(as)
	for _, shards := range []int{1, 2, 3, 8, 24} {
		// Budgets from "reduce every piece" to "one reduction per shard".
		for _, budget := range []int64{1, 64 * entryBytes, 1 << 20} {
			p := NewPool(600, 24, PoolOptions{
				Shards:      shards,
				BudgetBytes: budget,
				Add:         Options{Algorithm: Hash, SortedOutput: true},
			})
			for _, a := range as {
				if err := p.Push(a); err != nil {
					t.Fatal(err)
				}
			}
			got, err := p.Sum()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("shards=%d budget=%d: pool sum differs from one-shot sum", shards, budget)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("shards=%d budget=%d: stitched sum invalid: %v", shards, budget, err)
			}
			if p.K() != len(as) {
				t.Errorf("shards=%d budget=%d: K=%d, want %d", shards, budget, p.K(), len(as))
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPoolSumBetweenPushes(t *testing.T) {
	a := matrix.FromTriples(4, 6, []matrix.Triple{{Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 5, Val: 4}})
	b := matrix.FromTriples(4, 6, []matrix.Triple{{Row: 1, Col: 0, Val: 2}, {Row: 3, Col: 4, Val: 5}})
	p := NewPool(4, 6, PoolOptions{Shards: 3, Add: Options{Algorithm: Hash, SortedOutput: true}})
	defer p.Close()
	if err := p.Push(a); err != nil {
		t.Fatal(err)
	}
	s1, err := p.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if s1.At(1, 0) != 1 || s1.At(2, 5) != 4 {
		t.Errorf("partial sum wrong: At(1,0)=%v At(2,5)=%v", s1.At(1, 0), s1.At(2, 5))
	}
	if err := p.Push(b); err != nil {
		t.Fatal(err)
	}
	s2, err := p.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if s2.At(1, 0) != 3 || s2.At(3, 4) != 5 || s2.At(2, 5) != 4 {
		t.Errorf("final sum wrong: At(1,0)=%v At(3,4)=%v At(2,5)=%v", s2.At(1, 0), s2.At(3, 4), s2.At(2, 5))
	}
	// s1 is caller-owned: the second reduction must not have touched it.
	if s1.At(1, 0) != 1 {
		t.Error("earlier Sum result mutated by later reduction")
	}
}

func TestPoolEmptyAndZeroPushes(t *testing.T) {
	p := NewPool(7, 5, PoolOptions{Shards: 2})
	defer p.Close()
	got, err := p.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.Rows != 7 || got.Cols != 5 {
		t.Errorf("empty pool sum = %v", got)
	}
	// Zero-nnz deltas are the identity; they must neither queue work
	// nor corrupt the sum.
	zero := matrix.NewCSC(7, 5, 0)
	for i := 0; i < 2000; i++ {
		if err := p.Push(zero); err != nil {
			t.Fatal(err)
		}
	}
	got, err = p.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Errorf("zero-flood sum has %d entries", got.NNZ())
	}
	if p.K() != 2000 {
		t.Errorf("K=%d, want 2000", p.K())
	}
}

func TestPoolDimCheck(t *testing.T) {
	p := NewPool(4, 4, PoolOptions{})
	defer p.Close()
	if err := p.Push(matrix.NewCSC(5, 4, 0)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch not rejected: %v", err)
	}
}

func TestPoolClosed(t *testing.T) {
	leakcheck.Begin(t)
	as := erInputs(3, 100, 8, 4, 62)
	p := NewPool(100, 8, PoolOptions{Shards: 2, Add: Options{Algorithm: Hash, SortedOutput: true}})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Push(as[0]); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Push after Close: %v, want ErrPoolClosed", err)
	}
	// Close drains; Sum still answers afterwards, and again (idempotent).
	want := matrix.ReferenceAdd(as)
	for i := 0; i < 2; i++ {
		got, err := p.Sum()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("Sum after Close differs from one-shot sum")
		}
	}
	// A second Close is a lifecycle bug; it reports ErrPoolClosed
	// instead of silently succeeding (or re-draining).
	if err := p.Close(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("second Close: %v, want ErrPoolClosed", err)
	}
}

// unsortedDelta is an 8x4 matrix whose first column holds rows 5 and
// 2, in that order: Heap and the 2-way baselines reject it.
func unsortedDelta() *matrix.CSC {
	u := matrix.NewCSC(8, 4, 2)
	u.RowIdx = append(u.RowIdx, 5, 2)
	u.Val = append(u.Val, 1, 1)
	for j := 1; j <= 4; j++ {
		u.ColPtr[j] = 2
	}
	return u
}

// TestPoolRefusesUnsortedUnderHeap: Heap needs sorted input, so a Heap
// pool refuses an unsorted push at the door. Queued, it would fail the
// shard's reduction and drop the good pushes batched with it.
func TestPoolRefusesUnsortedUnderHeap(t *testing.T) {
	sorted := erInputs(1, 8, 4, 2, 63)[0]
	p := NewPool(8, 4, PoolOptions{Shards: 1, Add: Options{Algorithm: Heap}})
	if err := p.Push(sorted); err != nil {
		t.Fatal(err)
	}
	if err := p.Push(unsortedDelta()); !errors.Is(err, ErrUnsortedInput) {
		t.Errorf("Push(unsorted) = %v, want ErrUnsortedInput", err)
	}
	got, err := p.Sum()
	if err != nil {
		t.Fatalf("Sum after a refused push: %v", err)
	}
	if !got.Equal(sorted) {
		t.Error("Sum differs from the one accepted push")
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close after a refused push: %v", err)
	}
}

// dropPlus is Plus with the DropIdentity output policy.
var dropPlus = &ops.Monoid{Name: "PlusDrop", Combine: func(a, b matrix.Value) matrix.Value { return a + b }, DropIdentity: true}

// unrunnableOptions are option sets that fail every reduction whatever
// is pushed, each with the error an Accumulator or Pool push must
// return for it.
func unrunnableOptions() []struct {
	name string
	opt  Options
	err  error
} {
	return []struct {
		name string
		opt  Options
		err  error
	}{
		{"TwoWayTree+Min", Options{Algorithm: TwoWayTree, Monoid: ops.Min}, ErrMonoidUnsupported},
		{"MapIncremental+Count", Options{Algorithm: MapIncremental, Monoid: ops.Count}, ErrMonoidUnsupported},
		{"no Combine", Options{Monoid: &ops.Monoid{Name: "broken"}}, ErrMonoidUnsupported},
		{"SlidingHash+DropIdentity", Options{Algorithm: SlidingHash, Monoid: dropPlus}, ErrMonoidUnsupported},
		{"Algorithm(99)", Options{Algorithm: Algorithm(99)}, nil}, // any error
	}
}

// TestPoolRefusesUnrunnableOptions: options no reduction can run are
// refused at Push, so nothing is queued to fail the shard at Sum. A
// bool pool without a monoid is one such case; Auto with a DropIdentity
// monoid resolves to a single-pass algorithm and is admitted.
func TestPoolRefusesUnrunnableOptions(t *testing.T) {
	as := erInputs(3, 8, 4, 2, 66)
	for _, c := range unrunnableOptions() {
		p := NewPool(8, 4, PoolOptions{Shards: 1, Add: c.opt})
		for _, a := range as {
			if err := p.Push(a); err == nil || (c.err != nil && !errors.Is(err, c.err)) {
				t.Errorf("%s: Push = %v, want a refusal (%v)", c.name, err, c.err)
			}
		}
		requireIdlePool(t, c.name, p, 0)
	}
	b := NewPoolOf[bool](8, 4, PoolOptionsOf[bool]{Shards: 1})
	if err := b.Push(matrix.Convert[bool](as[0])); !errors.Is(err, ErrMonoidUnsupported) {
		t.Errorf("bool without a monoid: Push = %v, want ErrMonoidUnsupported", err)
	}
	requireIdlePool(t, "bool without a monoid", b, 0)

	p := NewPool(8, 4, PoolOptions{Shards: 1, Add: Options{Monoid: dropPlus}})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatalf("Auto+DropIdentity: Push = %v", err)
		}
	}
	want, err := Add(as, Options{Monoid: dropPlus})
	if err != nil {
		t.Fatal(err)
	}
	requireIdlePool(t, "Auto+DropIdentity", p, want.NNZ())
}

// requireIdlePool checks that p sums to nnz entries with a nil error,
// that every shard reads healthy, and that Close returns nil.
func requireIdlePool[T matrix.Number](t *testing.T, name string, p *PoolOf[T], nnz int) {
	t.Helper()
	got, err := p.Sum()
	if err != nil || got.NNZ() != nnz {
		t.Errorf("%s: Sum = %d entries, %v; want %d, nil", name, got.NNZ(), err, nnz)
	}
	for _, h := range p.Health() {
		if h.State != HealthOK || h.Dropped != 0 {
			t.Errorf("%s: shard %d reads %v with %d dropped, want healthy", name, h.Shard, h.State, h.Dropped)
		}
	}
	if err := p.Close(); err != nil {
		t.Errorf("%s: Close = %v", name, err)
	}
}

func TestPoolShardsHeuristic(t *testing.T) {
	for _, tc := range []struct {
		cols, shards, wantLo, wantHi int
	}{
		{3, 0, 1, 3},   // default: capped by column count
		{0, 0, 1, 1},   // zero columns still get one shard
		{100, 7, 7, 7}, // explicit count honored
		{4, 16, 4, 4},  // explicit count past cols clamps: empty shards would idle reducers and dilute the budget
	} {
		p := NewPool(10, tc.cols, PoolOptions{Shards: tc.shards})
		if got := p.Shards(); got < tc.wantLo || got > tc.wantHi {
			t.Errorf("cols=%d shards=%d: got %d shards, want in [%d, %d]",
				tc.cols, tc.shards, got, tc.wantLo, tc.wantHi)
		}
		p.Close()
	}
}

// TestPoolClaimBatchBudgetBound is the white-box check that a shard
// reduction's input obeys the Accumulator's bound — running sum plus
// claimed pieces never exceeds budget + one matrix — no matter how far
// producers ran ahead of the reducer, and that claims release exactly
// the bytes commit charged at every element width.
func TestPoolClaimBatchBudgetBound(t *testing.T) {
	piece := erInputs(1, 200, 4, 6, 65)[0]
	testClaimBatchBudgetBound(t, piece)
	testClaimBatchBudgetBound(t, matrix.Convert[float32](piece))
}

func testClaimBatchBudgetBound[T matrix.Number](t *testing.T, piece *matrix.CSCOf[T]) {
	t.Helper()
	per := int64(piece.NNZ()) * entryBytesOf[T]()
	s := &poolShardOf[T]{c0: 0, c1: 4, streamOf: streamOf[T]{budget: 3*per + 1}}
	s.space = sync.NewCond(&s.mu)
	// A queue far past the budget, as if the reducer had stalled.
	for i := 0; i < 20; i++ {
		s.pending = append(s.pending, piece)
		s.pendingBytes += per
	}
	s.sum = piece // running sum worth one matrix
	s.mu.Lock()
	for len(s.pending) > 0 {
		before := len(s.pending)
		n := s.claimBatch()
		claimed := int64(0)
		for _, m := range s.batch[len(s.batch)-n:] {
			claimed += int64(m.NNZ()) * entryBytesOf[T]()
		}
		if n == 0 {
			t.Fatal("claimBatch claimed nothing from a non-empty queue")
		}
		if in := s.sumBytes() + claimed; in > s.budget+per {
			t.Fatalf("reduction input %d bytes exceeds budget+one matrix = %d", in, s.budget+per)
		}
		if n+len(s.pending) != before {
			t.Fatal("claimBatch lost or duplicated pieces")
		}
	}
	if s.pendingBytes != 0 {
		t.Fatalf("%T: pendingBytes=%d after draining", *new(T), s.pendingBytes)
	}
	s.mu.Unlock()
}

// TestPoolPendingBytesDrainToZero: a drained float32 shard reports
// zero pending bytes. Claims must release exactly the bytes pushes
// charged, or the gauge drifts and the high-water backpressure that
// reads it drifts with it.
func TestPoolPendingBytesDrainToZero(t *testing.T) {
	leakcheck.Begin(t)
	p := NewPoolOf[float32](512, 64, PoolOptionsOf[float32]{
		Shards: 2, BudgetBytes: 4 << 10, Add: OptionsOf[float32]{Algorithm: Hash},
	})
	defer p.Close()
	for _, a := range erInputs(40, 512, 64, 8, 66) {
		if err := p.Push(matrix.Convert[float32](a)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Sum(); err != nil {
		t.Fatal(err)
	}
	for _, h := range p.Health() {
		if h.Pending != 0 || h.PendingBytes != 0 {
			t.Errorf("shard %d after Sum: Pending=%d PendingBytes=%d, want 0 and 0", h.Shard, h.Pending, h.PendingBytes)
		}
	}
}

// TestAccumulatorMatchesSingleShardPool pins the single budget rule: a
// one-shard Pool is an asynchronous Accumulator, so the same pushes
// must batch into the same reductions and the same sum, whatever the
// budget and element width.
func TestAccumulatorMatchesSingleShardPool(t *testing.T) {
	leakcheck.Begin(t)
	as := erInputs(60, 512, 32, 6, 67)
	per := int64(as[0].NNZ()) * entryBytes
	for _, matrices := range []int64{3, 7, 20} {
		budget := matrices * per
		t.Run(fmt.Sprintf("float64/budget=%d", matrices), func(t *testing.T) { testAccumulatorMatchesPool(t, as, budget) })
		t.Run(fmt.Sprintf("float32/budget=%d", matrices), func(t *testing.T) { testAccumulatorMatchesPool(t, convertAll[float32](as), budget) })
		t.Run(fmt.Sprintf("int32/budget=%d", matrices), func(t *testing.T) { testAccumulatorMatchesPool(t, convertAll[int32](as), budget) })
	}
}

func convertAll[T matrix.Number](as []*matrix.CSC) []*matrix.CSCOf[T] {
	out := make([]*matrix.CSCOf[T], len(as))
	for i, a := range as {
		out[i] = matrix.Convert[T](a)
	}
	return out
}

func testAccumulatorMatchesPool[T matrix.Number](t *testing.T, as []*matrix.CSCOf[T], budget int64) {
	opt := OptionsOf[T]{Algorithm: Hash, Threads: 1}
	rows, cols := as[0].Rows, as[0].Cols
	ac := NewAccumulatorOf[T](rows, cols, budget, opt)
	p := NewPoolOf[T](rows, cols, PoolOptionsOf[T]{Shards: 1, BudgetBytes: budget, Add: opt})
	defer p.Close()
	for _, a := range as {
		if err := ac.Push(a); err != nil {
			t.Fatal(err)
		}
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if ac.Reductions() != p.Reductions() {
		t.Errorf("Accumulator ran %d reductions, single-shard Pool %d", ac.Reductions(), p.Reductions())
	}
	if !got.Equal(want) {
		t.Error("single-shard Pool sum differs from the Accumulator's")
	}
}

// TestPoolSumAtomicPerPush checks Push/Sum linearization: every
// pushed matrix carries one entry in every column, so any Sum — even
// racing live producers — must see the same value in all columns. A
// torn snapshot (a push's pieces landed in some shards but not
// others) would show unequal columns.
func TestPoolSumAtomicPerPush(t *testing.T) {
	leakcheck.Begin(t)
	const rows, cols, producers, perProducer = 64, 32, 4, 60
	ts := make([]matrix.Triple, cols)
	for j := range ts {
		ts[j] = matrix.Triple{Row: 0, Col: matrix.Index(j), Val: 1}
	}
	full := matrix.FromTriples(rows, cols, ts)
	p := NewPool(rows, cols, PoolOptions{
		Shards:      4,
		BudgetBytes: 1, // reduce constantly, maximizing barrier traffic
		Add:         Options{Algorithm: Hash, SortedOutput: true},
	})
	defer p.Close()
	var prodWG, checkWG sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, producers+1)
	for g := 0; g < producers; g++ {
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			for i := 0; i < perProducer; i++ {
				if err := p.Push(full); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mid, err := p.Sum()
			if err != nil {
				errs <- err
				return
			}
			for j := 1; j < cols; j++ {
				if mid.At(0, j) != mid.At(0, 0) {
					errs <- fmt.Errorf("torn snapshot: col %d saw %v pushes, col 0 saw %v",
						j, mid.At(0, j), mid.At(0, 0))
					return
				}
			}
		}
	}()
	prodWG.Wait()
	close(stop)
	checkWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := p.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != float64(producers*perProducer) {
		t.Fatalf("final sum value %v, want %d", got.At(0, 0), producers*perProducer)
	}
}

func TestPoolBatchesByBudget(t *testing.T) {
	// With one shard and a budget of sum + ~4 matrices, the pool's
	// reduction count should mirror the Accumulator's batching: ~k/4,
	// not k. Same-pattern inputs keep the running sum at one matrix's
	// footprint so the arithmetic is exact.
	one := erInputs(1, 500, 8, 10, 64)[0]
	per := int64(one.NNZ()) * entryBytes
	p := NewPool(500, 8, PoolOptions{Shards: 1, BudgetBytes: 5*per + 1, Add: Options{Algorithm: Hash}})
	defer p.Close()
	for i := 0; i < 16; i++ {
		if err := p.Push(one); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Sum(); err != nil {
		t.Fatal(err)
	}
	// The reducer is asynchronous, so the exact count depends on how
	// far the producer ran ahead: every budget-triggered reduction
	// absorbs at least 5 pending matrices (sum + pending > 5 matrices'
	// budget), giving at most floor(16/5) of them plus the final
	// barrier flush — and at least one reduction total. Never 16,
	// which is what an unbatched (pairwise) drain would do.
	if r := p.Reductions(); r < 1 || r > 4 {
		t.Errorf("reductions = %d, want within [1, 4] for a 4-matrix budget over k=16", r)
	}
}
