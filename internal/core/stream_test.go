package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"spkadd/internal/faults/leakcheck"
	"spkadd/internal/matrix"
)

// entryBytes is the footprint of one stored float64 entry (4-byte
// index + 8-byte value), the unit the float64 tests size budgets in.
const entryBytes = 12

func TestAccumulatorMatchesOneShot(t *testing.T) {
	leakcheck.Begin(t)
	as := erInputs(20, 800, 16, 12, 51)
	want := matrix.ReferenceAdd(as)
	// Budgets from "reduce every push" to "one big reduction".
	for _, budget := range []int64{1, 10 * entryBytes, 1 << 20} {
		ac := NewAccumulator(800, 16, budget, Options{Algorithm: Hash, SortedOutput: true})
		for _, a := range as {
			if err := ac.Push(a); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ac.Sum()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("budget=%d: streaming sum differs from one-shot sum", budget)
		}
		if ac.K() != len(as) {
			t.Errorf("budget=%d: K=%d, want %d", budget, ac.K(), len(as))
		}
	}
}

// TestAccumulatorRefusesUnsortedUnderHeap: a Heap accumulator refuses
// an unsorted push. Buffered, it would fail every later reduction.
// Under a 1-byte budget each push reduces what is pending, so the
// pushes after the refused one reduce right away.
func TestAccumulatorRefusesUnsortedUnderHeap(t *testing.T) {
	good := erInputs(3, 8, 4, 2, 64)
	ac := NewAccumulator(8, 4, 1, Options{Algorithm: Heap})
	if err := ac.Push(good[0]); err != nil {
		t.Fatal(err)
	}
	if err := ac.Push(unsortedDelta()); !errors.Is(err, ErrUnsortedInput) {
		t.Fatalf("Push(unsorted) = %v, want ErrUnsortedInput", err)
	}
	for _, a := range good[1:] {
		if err := ac.Push(a); err != nil {
			t.Fatalf("Push after a refused push: %v", err)
		}
	}
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Add(good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("Sum differs from Add of the accepted pushes")
	}
}

// TestAccumulatorRefusesUnrunnableOptions: options no reduction can
// run are refused at every Push and leave the state untouched, so Sum
// returns the empty sum rather than the error. At a 1-byte budget the
// first push used to be buffered and every later call to fail.
func TestAccumulatorRefusesUnrunnableOptions(t *testing.T) {
	as := erInputs(3, 8, 4, 2, 67)
	for _, c := range unrunnableOptions() {
		ac := NewAccumulator(8, 4, 1, c.opt)
		for _, a := range as {
			if err := ac.Push(a); err == nil || (c.err != nil && !errors.Is(err, c.err)) {
				t.Errorf("%s: Push = %v, want a refusal (%v)", c.name, err, c.err)
			}
		}
		if got, err := ac.Sum(); err != nil || got.NNZ() != 0 {
			t.Errorf("%s: Sum = %d entries, %v; want the empty sum", c.name, got.NNZ(), err)
		}
	}
	b := NewAccumulatorOf[bool](8, 4, 1, OptionsOf[bool]{})
	if err := b.Push(matrix.Convert[bool](as[0])); !errors.Is(err, ErrMonoidUnsupported) {
		t.Errorf("bool without a monoid: Push = %v, want ErrMonoidUnsupported", err)
	}
	if got, err := b.Sum(); err != nil || got.NNZ() != 0 {
		t.Errorf("bool without a monoid: Sum = %d entries, %v; want the empty sum", got.NNZ(), err)
	}

	ac := NewAccumulator(8, 4, 1, Options{Monoid: dropPlus})
	for _, a := range as {
		if err := ac.Push(a); err != nil {
			t.Fatalf("Auto+DropIdentity: Push = %v", err)
		}
	}
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Add(as, Options{Monoid: dropPlus})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("Auto+DropIdentity: Sum differs from Add")
	}
}

func TestAccumulatorBatching(t *testing.T) {
	// A budget of sum + ~4 matrices should produce ~k/4 reductions,
	// far fewer than k (which is what pairwise incremental would do).
	// The budget covers a reduction's total input — running sum plus
	// pending — so the inputs all share one sparsity pattern, keeping
	// the sum at exactly one matrix's footprint and the arithmetic
	// k/4 independent of how the union would have grown.
	one := erInputs(1, 500, 8, 10, 52)[0]
	per := int64(one.NNZ()) * entryBytes
	ac := NewAccumulator(500, 8, 5*per+1, Options{Algorithm: Hash})
	for i := 0; i < 16; i++ {
		if err := ac.Push(one); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ac.Sum(); err != nil {
		t.Fatal(err)
	}
	if r := ac.Reductions(); r < 3 || r > 6 {
		t.Errorf("reductions = %d, want ~4 for a 4-matrix budget over k=16", r)
	}
}

func TestAccumulatorIncrementalQueries(t *testing.T) {
	// Sum may be requested between pushes; later pushes keep working.
	a := matrix.FromTriples(4, 2, []matrix.Triple{{Row: 1, Col: 0, Val: 1}})
	b := matrix.FromTriples(4, 2, []matrix.Triple{{Row: 1, Col: 0, Val: 2}, {Row: 3, Col: 1, Val: 5}})
	ac := NewAccumulator(4, 2, 0, Options{Algorithm: Hash, SortedOutput: true})
	if err := ac.Push(a); err != nil {
		t.Fatal(err)
	}
	s1, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if s1.At(1, 0) != 1 {
		t.Errorf("partial sum At(1,0) = %v", s1.At(1, 0))
	}
	if err := ac.Push(b); err != nil {
		t.Fatal(err)
	}
	s2, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if s2.At(1, 0) != 3 || s2.At(3, 1) != 5 {
		t.Errorf("final sum wrong: At(1,0)=%v At(3,1)=%v", s2.At(1, 0), s2.At(3, 1))
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	ac := NewAccumulator(5, 5, 0, Options{})
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.Rows != 5 || got.Cols != 5 {
		t.Errorf("empty accumulator sum = %v", got)
	}
}

func TestAccumulatorDimCheck(t *testing.T) {
	ac := NewAccumulator(4, 4, 0, Options{})
	bad := matrix.NewCSC(5, 4, 0)
	if err := ac.Push(bad); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch not rejected: %v", err)
	}
}

// TestAccumulatorBudgetIncludesSum is the regression test for the
// budget-accounting fix: a reduction reads sum + pending, so the
// running sum's bytes must count toward the budget. Every internal
// reduction's input equals the accumulator's (sum + pending) state
// after some earlier Push — reductions trigger at the top of Push,
// before the new matrix is buffered — so tracking that state after
// each Push bounds every reduction's input. Under the old accounting
// (pending bytes only) the observed maximum overshoots budget by up
// to the sum's full size.
func TestAccumulatorBudgetIncludesSum(t *testing.T) {
	as := erInputs(24, 800, 16, 12, 53)
	want := matrix.ReferenceAdd(as)
	var per int64
	for _, a := range as {
		if b := int64(a.NNZ()) * entryBytes; b > per {
			per = b
		}
	}
	// Budget accommodates the full sum plus ~2 matrices, so the sum
	// never exceeds the budget on its own and reductions still happen.
	budget := int64(want.NNZ())*entryBytes + 2*per
	ac := NewAccumulator(800, 16, budget, Options{Algorithm: Hash, SortedOutput: true})
	var maxInput int64
	for _, a := range as {
		if err := ac.Push(a); err != nil {
			t.Fatal(err)
		}
		if in := ac.sumBytes() + ac.pendingBytes; in > maxInput {
			maxInput = in
		}
	}
	if maxInput > budget+per {
		t.Errorf("worst reduction input %d bytes exceeds budget+one matrix = %d", maxInput, budget+per)
	}
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("sum differs from one-shot sum")
	}
	if r := ac.Reductions(); r < 2 {
		t.Errorf("reductions = %d; budget was sized so the invariant is actually exercised", r)
	}
}

// TestAccumulatorZeroNNZFlood is the regression test for the
// pending-count cap: zero-nnz pushes contribute zero bytes, so under
// byte-only accounting they grew the pending slice forever without a
// single flush.
func TestAccumulatorZeroNNZFlood(t *testing.T) {
	ac := NewAccumulator(100, 10, 1<<20, Options{Algorithm: Hash})
	zero := matrix.NewCSC(100, 10, 0)
	for i := 0; i < maxPendingMatrices+50; i++ {
		if err := ac.Push(zero); err != nil {
			t.Fatal(err)
		}
	}
	if ac.Reductions() == 0 {
		t.Error("zero-nnz flood never triggered a flush")
	}
	if len(ac.pending) > maxPendingMatrices {
		t.Errorf("pending grew to %d, cap is %d", len(ac.pending), maxPendingMatrices)
	}
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Errorf("flood sum has %d entries, want 0", got.NNZ())
	}
}

// TestAccumulatorBusyFlag deterministically exercises the
// concurrent-misuse detection: with the busy flag held, every entry
// point fails with ErrAccumulatorInUse instead of touching state.
func TestAccumulatorBusyFlag(t *testing.T) {
	ac := NewAccumulator(10, 4, 0, Options{Algorithm: Hash})
	a := matrix.FromTriples(10, 4, []matrix.Triple{{Row: 1, Col: 1, Val: 1}})
	ac.busy.Store(true)
	if err := ac.Push(a); !errors.Is(err, ErrAccumulatorInUse) {
		t.Errorf("Push while busy: %v", err)
	}
	if err := ac.Flush(); !errors.Is(err, ErrAccumulatorInUse) {
		t.Errorf("Flush while busy: %v", err)
	}
	if _, err := ac.Sum(); !errors.Is(err, ErrAccumulatorInUse) {
		t.Errorf("Sum while busy: %v", err)
	}
	if ac.K() != 0 {
		t.Errorf("rejected Push still counted: K=%d", ac.K())
	}
	ac.busy.Store(false)
	if err := ac.Push(a); err != nil {
		t.Fatal(err)
	}
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if got.At(1, 1) != 1 {
		t.Error("accumulator unusable after busy flag released")
	}
}

// TestAccumulatorConcurrentMisuse hammers one Accumulator from many
// goroutines: overlapping calls must fail fast with
// ErrAccumulatorInUse — never corrupt the resident workspace — and
// the accumulator must account exactly for the pushes that succeeded.
func TestAccumulatorConcurrentMisuse(t *testing.T) {
	leakcheck.Begin(t)
	one := erInputs(1, 400, 12, 8, 54)[0]
	// A small budget forces reductions inside Push, widening the
	// window in which a second goroutine can overlap.
	ac := NewAccumulator(400, 12, 1, Options{Algorithm: Hash, SortedOutput: true})
	const goroutines, iters = 8, 40
	var wg sync.WaitGroup
	var succeeded atomic.Int64
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch err := ac.Push(one); {
				case err == nil:
					succeeded.Add(1)
				case errors.Is(err, ErrAccumulatorInUse):
					// expected under contention
				default:
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := int(succeeded.Load())
	if ac.K() != n {
		t.Fatalf("K=%d, want %d successful pushes", ac.K(), n)
	}
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	repeated := make([]*matrix.CSC, n)
	for i := range repeated {
		repeated[i] = one
	}
	if !got.Equal(matrix.ReferenceAdd(repeated)) {
		t.Fatal("accumulator state corrupted by concurrent misuse")
	}
}

func TestQuickAccumulatorAnyBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(12) + 1
		rows, cols := rng.Intn(50)+1, rng.Intn(6)+1
		as := make([]*matrix.CSC, k)
		for i := range as {
			coo := matrix.NewCOO(rows, cols)
			for e := 0; e < rng.Intn(30); e++ {
				coo.Append(matrix.Index(rng.Intn(rows)), matrix.Index(rng.Intn(cols)), float64(rng.Intn(5)+1))
			}
			as[i] = coo.ToCSC()
		}
		want := matrix.ReferenceAdd(as)
		ac := NewAccumulator(rows, cols, int64(rng.Intn(2000)+1), Options{Algorithm: Hash, SortedOutput: true})
		for _, a := range as {
			if ac.Push(a) != nil {
				return false
			}
		}
		got, err := ac.Sum()
		return err == nil && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
