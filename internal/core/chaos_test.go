package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"spkadd/internal/faults"
	"spkadd/internal/faults/leakcheck"
	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

// The chaos suite drives the streaming stack through the fault
// schedules of internal/faults and asserts the failure model of
// DESIGN.md §11: a failed reduction poisons exactly the shard it hit,
// cancellation never corrupts a later sum, and nothing leaks a
// goroutine. CI runs it under -race (the "chaos" step selects on the
// TestChaos prefix).

// columnEqual compares one column of two matrices entry-for-entry
// (both sides sorted by construction in these tests).
func columnEqual[T matrix.Number](a, b *matrix.CSCOf[T], j int) bool {
	ar, br := a.ColRows(j), b.ColRows(j)
	av, bv := a.ColVals(j), b.ColVals(j)
	if len(ar) != len(br) {
		return false
	}
	for i := range ar {
		if ar[i] != br[i] || av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestChaosPoolPanicSubset is the tentpole's acceptance scenario: a
// schedule panics the kernels of exactly one shard; the pool recovers,
// quarantines that shard, and keeps serving the rest. Sum returns the
// healthy shards' exact columns alongside one ShardError, Health
// pinpoints the poisoned shard, and Close leaks nothing.
func TestChaosPoolPanicSubset(t *testing.T) {
	leakcheck.Begin(t)
	const shards, rows, cols, target = 4, 400, 16, 2
	// Shard zones are 1-based, so shard `target` reports key target+1.
	in := faults.New(11, faults.Rule{Point: faults.PanicInKernel, Key: target + 1})
	defer faults.Activate(in)()

	as := erInputs(12, rows, cols, 8, 71)
	want := matrix.ReferenceAdd(as)
	stats := &OpStats{}
	p := NewPool(rows, cols, PoolOptions{
		Shards: shards,
		Add:    Options{Algorithm: Hash, SortedOutput: true, Stats: stats},
	})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Sum()
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != target {
		t.Fatalf("Sum error = %v, want a ShardError for shard %d", err, target)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("shard error does not carry a *PanicError: %v", err)
	}
	if _, ok := pe.Value.(faults.InjectedPanic); !ok {
		t.Errorf("recovered panic value = %v, want faults.InjectedPanic", pe.Value)
	}

	// Healthy shards' columns are exact; the poisoned shard never
	// completed a reduction, so its columns are empty in the stitch.
	c0, c1 := sched.Span(cols, shards, target)
	for j := 0; j < cols; j++ {
		if j >= c0 && j < c1 {
			if got.ColNNZ(j) != 0 {
				t.Errorf("poisoned column %d has %d entries, want its last good sum (empty)", j, got.ColNNZ(j))
			}
			continue
		}
		if !columnEqual(got, want, j) {
			t.Errorf("healthy column %d differs from the one-shot reference", j)
		}
	}

	for i, h := range p.Health() {
		wantState := HealthOK
		if i == target {
			wantState = HealthPoisoned
		}
		if h.State != wantState {
			t.Errorf("Health()[%d].State = %v, want %v", i, h.State, wantState)
		}
		if i == target && h.Err == nil {
			t.Error("poisoned shard reports no error")
		}
	}
	if n := stats.PanicsRecovered.Load(); n != 1 {
		t.Errorf("PanicsRecovered = %d, want 1 (poisoned shards are never retried)", n)
	}
	if n := stats.ShardsPoisoned.Load(); n != 1 {
		t.Errorf("ShardsPoisoned = %d, want 1", n)
	}
	if stats.FaultsInjected.Load() == 0 {
		t.Error("FaultsInjected = 0, want the injected panic counted")
	}

	// Healthy shards keep accepting work after the failure.
	if err := p.Push(as[0]); err != nil {
		t.Fatalf("push after shard poisoning: %v", err)
	}
	if err := p.Close(); !errors.As(err, &se) {
		t.Errorf("Close = %v, want the sticky ShardError", err)
	}
}

// TestChaosPoolReductionErrorPoisons: a reduction that fails with an
// ordinary error poisons its shard exactly as a panic does, minus the
// quarantine. The error is sticky, the failed batch and everything the
// shard receives later are dropped, its columns stay frozen at the last
// good sum, and the other shard keeps reducing.
func TestChaosPoolReductionErrorPoisons(t *testing.T) {
	leakcheck.Begin(t)
	const rows, cols = 300, 8
	as := erInputs(3, rows, cols, 6, 73)
	stats := &OpStats{}
	p := NewPool(rows, cols, PoolOptions{
		Shards: 2,
		Add:    Options{Algorithm: Hash, SortedOutput: true, Stats: stats},
	})
	if err := p.Push(as[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sum(); err != nil {
		t.Fatal(err)
	}

	// Shard 0 reports zone key 1; its next reduction, the batch holding
	// as[1], fails once.
	deactivate := faults.Activate(faults.New(13,
		faults.Rule{Point: faults.FailReduction, Key: 1, Count: 1}))
	if err := p.Push(as[1]); err != nil {
		t.Fatal(err)
	}
	_, err := p.Sum()
	deactivate()
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("Sum = %v, want a ShardError for shard 0", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Errorf("shard error does not unwrap to the injected fault: %v", err)
	}
	if h := p.Health(); h[0].State != HealthPoisoned || h[1].State != HealthOK {
		t.Fatalf("Health = %v, %v; want poisoned, ok", h[0].State, h[1].State)
	}

	// A clean push cannot revive the shard: the error stays sticky and
	// shard 0's columns stay the sum of as[0] alone.
	if err := p.Push(as[2]); err != nil {
		t.Fatal(err)
	}
	got, err := p.Sum()
	if !errors.As(err, &se) || se.Shard != 0 || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Sum after a clean push = %v, want the sticky ShardError for shard 0", err)
	}
	wantFrozen, wantFull := as[0], matrix.ReferenceAdd(as)
	c0, c1 := sched.Span(cols, 2, 0)
	for j := 0; j < cols; j++ {
		want := wantFull
		if j >= c0 && j < c1 {
			want = wantFrozen
		}
		if !columnEqual(got, want, j) {
			t.Errorf("column %d differs from its expected sum", j)
		}
	}
	h := p.Health()
	if h[0].State != HealthPoisoned || h[1].State != HealthOK {
		t.Errorf("Health after a clean push = %v, %v; want poisoned, ok", h[0].State, h[1].State)
	}
	var pe *PanicError
	if errors.As(h[0].Err, &pe) {
		t.Errorf("poisoned shard's error is a *PanicError for an ordinary failure: %v", h[0].Err)
	}
	// The barrier does not wait for a poisoned shard, so as[2]'s piece
	// may still be queued: the two pieces are dropped or pending.
	if n := h[0].Dropped + int64(h[0].Pending); n != 2 {
		t.Errorf("Dropped+Pending = %d, want 2 (the failed batch's piece and the later one)", n)
	}
	if n := stats.ShardsPoisoned.Load(); n != 1 {
		t.Errorf("ShardsPoisoned = %d, want 1", n)
	}
	if n := stats.PanicsRecovered.Load(); n != 0 {
		t.Errorf("PanicsRecovered = %d for an ordinary error, want 0", n)
	}
	if err := p.Close(); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("Close = %v, want the sticky injected error", err)
	}
}

// TestChaosPoolModel runs seeded random operation sequences on an
// int64 pool, so sums compare exactly however the reducers batch, and
// checks every completed sum against a sequential model of the
// accepted pushes. The operations are Push, PushContext and SumContext
// under an already-canceled context (each either completes or fails
// with ErrCanceled), a one-shot kernel panic or reduction error armed
// on a random shard, and Sum. After every sum, each OK shard's columns
// must equal the reference over every accepted push; each poisoned
// shard's columns must equal the sum of some prefix of them and never
// change afterwards; the ShardErrors must name exactly the poisoned
// shards; and K must count the accepted pushes. Close must leave no
// goroutine behind.
func TestChaosPoolModel(t *testing.T) {
	var deepest, frozenChecks int
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, f := runPoolModel(t, seed)
			t.Logf("healthy shards checked up to %d pushes; %d poisoned-shard checks", d, f)
			deepest = max(deepest, d)
			frozenChecks += f
		})
	}
	if t.Failed() {
		return
	}
	// The model proves little if faults poison every shard early, or
	// never fire at all.
	if deepest < 20 {
		t.Errorf("no healthy shard was checked past %d accepted pushes, want >= 20", deepest)
	}
	if frozenChecks == 0 {
		t.Error("no seed checked a poisoned shard")
	}
}

// runPoolModel runs one seed of TestChaosPoolModel. It returns the
// most accepted pushes an OK shard was checked against and the number
// of poisoned-shard checks.
func runPoolModel(t *testing.T, seed uint64) (deepest, frozenChecks int) {
	leakcheck.Begin(t)
	const shards, rows, cols, d, steps = 3, 120, 12, 3, 90
	rng := rand.New(rand.NewPCG(seed, 29))
	piece := int64(d*cols/shards) * entryBytesOf[int64]()
	p := NewPoolOf[int64](rows, cols, PoolOptionsOf[int64]{
		Shards:      shards,
		BudgetBytes: shards * 3 * piece, // a few pushes per shard
		Add:         OptionsOf[int64]{Algorithm: Hash, SortedOutput: true},
	})
	defer p.Close() // a failed check still stops the reducers
	disarm := func() {}
	defer func() { disarm() }()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	// prefix[i] is the sum of the first i accepted pushes.
	prefix := []*matrix.CSCOf[int64]{matrix.NewCSCOf[int64](rows, cols, 0)}
	frozen := make([]*matrix.CSCOf[int64], shards)
	accept := func(a *matrix.CSCOf[int64]) {
		prefix = append(prefix, matrix.ReferenceAdd([]*matrix.CSCOf[int64]{prefix[len(prefix)-1], a}))
	}
	colsEqual := func(a, b *matrix.CSCOf[int64], c0, c1 int) bool {
		for j := c0; j < c1; j++ {
			if !columnEqual(a, b, j) {
				return false
			}
		}
		return true
	}
	check := func(step int, got *matrix.CSCOf[int64], err error) {
		t.Helper()
		k := len(prefix) - 1
		named := map[int]bool{}
		if err != nil {
			joined, ok := err.(interface{ Unwrap() []error })
			if !ok {
				t.Fatalf("step %d: sum error %v is not a join of ShardErrors", step, err)
			}
			for _, e := range joined.Unwrap() {
				var se *ShardError
				if !errors.As(e, &se) {
					t.Fatalf("step %d: sum error %v is not a ShardError", step, e)
				}
				named[se.Shard] = true
			}
		}
		for i, h := range p.Health() {
			if h.State == HealthOK {
				if named[i] {
					t.Fatalf("step %d: OK shard %d is named by the sum error %v", step, i, err)
				}
				if !colsEqual(got, prefix[k], h.Col0, h.Col1) {
					t.Fatalf("step %d: healthy shard %d differs from the reference over %d pushes", step, i, k)
				}
				deepest = max(deepest, k)
				continue
			}
			if !named[i] {
				t.Fatalf("step %d: %v shard %d is not named by the sum error %v", step, h.State, i, err)
			}
			if frozen[i] == nil {
				if !slices.ContainsFunc(prefix, func(s *matrix.CSCOf[int64]) bool { return colsEqual(got, s, h.Col0, h.Col1) }) {
					t.Fatalf("step %d: poisoned shard %d's columns are no prefix sum of the %d accepted pushes", step, i, k)
				}
				frozen[i] = got
			} else if !colsEqual(got, frozen[i], h.Col0, h.Col1) {
				t.Fatalf("step %d: poisoned shard %d's columns changed after poisoning", step, i)
			}
			frozenChecks++
		}
		if p.K() != k {
			t.Fatalf("step %d: K = %d, want %d accepted pushes", step, p.K(), k)
		}
	}
	delta := func() *matrix.CSCOf[int64] {
		a := matrix.Convert[int64](erInputs(1, rows, cols, d, rng.Uint64())[0])
		for q := range a.Val {
			a.Val[q] *= 1 + rng.Int64N(1000)
		}
		return a
	}

	for step := range steps {
		switch r := rng.IntN(24); {
		case r < 11:
			a := delta()
			if err := p.Push(a); err != nil {
				t.Fatalf("step %d: Push: %v", step, err)
			}
			accept(a)
		case r < 13:
			a := delta()
			switch err := p.PushContext(canceled, a); {
			case err == nil:
				accept(a)
			case !errors.Is(err, ErrCanceled):
				t.Fatalf("step %d: canceled PushContext = %v, want nil or ErrCanceled", step, err)
			}
		case r < 15:
			got, err := p.SumContext(canceled)
			if got == nil {
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("step %d: canceled SumContext = %v, want a sum or ErrCanceled", step, err)
				}
				continue
			}
			check(step, got, err)
		case r < 17:
			// Arming replaces any fault still unfired.
			pt := faults.FailReduction
			if rng.IntN(2) == 0 {
				pt = faults.PanicInKernel
			}
			disarm()
			disarm = faults.Activate(faults.New(seed, faults.Rule{Point: pt, Key: int64(rng.IntN(shards)) + 1, Count: 1}))
		default:
			got, err := p.Sum()
			check(step, got, err)
		}
	}
	disarm()
	got, err := p.Sum()
	check(steps, got, err)
	poisoned := slices.ContainsFunc(frozen, func(f *matrix.CSCOf[int64]) bool { return f != nil })
	if err := p.Close(); (err != nil) != poisoned {
		t.Errorf("Close = %v, want an error exactly when a shard is poisoned", err)
	}
	return deepest, frozenChecks
}

// TestChaosPushCancelUnderBackpressure: a producer blocked on a full
// shard (its reducer deliberately stalled) unblocks when its context
// ends, the failed push leaves no partial slice behind, and the final
// sum is exactly the successfully pushed prefix.
func TestChaosPushCancelUnderBackpressure(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(14, faults.Rule{Point: faults.SlowReduction, Key: faults.KeyAny, Delay: 300 * time.Millisecond})
	deactivate := faults.Activate(in)
	defer deactivate()

	as := erInputs(4, 200, 4, 8, 74)
	// A 1-byte budget makes the high-water mark 2 bytes: any queued
	// piece blocks the next push until the (stalled) reducer drains.
	p := NewPool(200, 4, PoolOptions{
		Shards:      1,
		BudgetBytes: 1,
		Add:         Options{Algorithm: Hash, SortedOutput: true},
	})
	defer p.Close()

	var pushed []*matrix.CSC
	sawCancel := false
	for _, a := range as {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		err := p.PushContext(ctx, a)
		cancel()
		switch {
		case err == nil:
			pushed = append(pushed, a)
		case errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline):
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Errorf("canceled push does not unwrap to the context error: %v", err)
			}
			sawCancel = true
		default:
			t.Fatalf("PushContext: %v", err)
		}
	}
	if !sawCancel {
		t.Fatal("no push hit backpressure; the stall schedule did not bite")
	}
	if len(pushed) == 0 {
		t.Fatal("every push was canceled; nothing to check parity against")
	}

	// With the stall schedule gone, the pool must drain to exactly the
	// sum of the pushes that succeeded — a canceled push contributes
	// nothing, not a partial slice.
	deactivate()
	got, err := p.Sum()
	if err != nil {
		t.Fatalf("Sum after canceled pushes: %v", err)
	}
	if !got.Equal(matrix.ReferenceAdd(pushed)) {
		t.Errorf("sum after canceled pushes differs from the successful prefix (%d of %d pushed)",
			len(pushed), len(as))
	}
	if p.K() != len(pushed) {
		t.Errorf("K = %d, want %d (canceled pushes must not count)", p.K(), len(pushed))
	}
}

// TestChaosSumCancelThenParity: a SumContext abandoned at its deadline
// leaves the pool consistent — the reducers finish in the background
// and an uncanceled Sum returns the exact total.
func TestChaosSumCancelThenParity(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(15, faults.Rule{Point: faults.SlowReduction, Key: faults.KeyAny, Count: 2, Delay: 150 * time.Millisecond})
	defer faults.Activate(in)()

	as := erInputs(8, 300, 8, 6, 75)
	p := NewPool(300, 8, PoolOptions{
		Shards: 2,
		Add:    Options{Algorithm: Hash, SortedOutput: true},
	})
	defer p.Close()
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.SumContext(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("SumContext at deadline = %v, want ErrDeadline (the stalled drain outlives 20ms)", err)
	}
	got, err := p.Sum()
	if err != nil {
		t.Fatalf("Sum after abandoned SumContext: %v", err)
	}
	if !got.Equal(matrix.ReferenceAdd(as)) {
		t.Error("sum after an abandoned SumContext differs from the one-shot reference")
	}
}

// TestChaosCloseContextDeadline: CloseContext abandoned at its
// deadline reports ErrDeadline while the shutdown completes behind it;
// the follow-up Close waits it out, and only the close after THAT is
// the lifecycle error.
func TestChaosCloseContextDeadline(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(16, faults.Rule{Point: faults.SlowReduction, Key: faults.KeyAny, Count: 1, Delay: 150 * time.Millisecond})
	defer faults.Activate(in)()

	as := erInputs(4, 200, 4, 6, 76)
	p := NewPool(200, 4, PoolOptions{
		Shards: 1,
		Add:    Options{Algorithm: Hash, SortedOutput: true},
	})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.CloseContext(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("CloseContext at deadline = %v, want ErrDeadline", err)
	}
	// The shutdown is still one shutdown: waiting it out is not a
	// second Close.
	if err := p.Close(); err != nil {
		t.Fatalf("Close completing the abandoned shutdown: %v", err)
	}
	if err := p.Close(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Close after a completed close = %v, want ErrPoolClosed", err)
	}
}

// TestChaosRandomizedStalls: a seeded probabilistic schedule of small
// reduction stalls must be fully absorbed — exact parity, every shard
// healthy.
func TestChaosRandomizedStalls(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(0xC0FFEE,
		faults.Rule{Point: faults.SlowReduction, Key: faults.KeyAny, Prob: 0.2, Delay: time.Millisecond},
	)
	defer faults.Activate(in)()

	as := erInputs(24, 400, 12, 8, 77)
	want := matrix.ReferenceAdd(as)
	p := NewPool(400, 12, PoolOptions{
		Shards:      3,
		BudgetBytes: 64 * entryBytes * 3, // several reductions per shard
		Add:         Options{Algorithm: Hash, SortedOutput: true},
	})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Sum()
	if err != nil {
		t.Fatalf("Sum under stalls: %v", err)
	}
	if !got.Equal(want) {
		t.Error("sum under stall-only chaos differs from the one-shot reference")
	}
	for i, h := range p.Health() {
		if h.State != HealthOK {
			t.Errorf("Health()[%d] = %v (%v), want ok", i, h.State, h.Err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if in.Fired() == 0 {
		t.Error("the schedule never fired; the test exercised nothing")
	}
}

// cancelAtCall is a context whose Err flips to canceled at the n-th
// poll: it deterministically cancels an addition at its n-th phase
// boundary, hitting the rewind paths (a consumed ping-pong flip must
// be rolled back) that a wall-clock cancellation only hits by luck.
type cancelAtCall struct {
	context.Context
	n     int
	calls int
}

func (c *cancelAtCall) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestChaosAccumulatorCancelEveryBoundary cancels an accumulator's
// final flush at every phase boundary in turn and checks the
// cancellation contract each time: the canceled Sum fails with
// ErrCanceled, state is untouched, and an uncanceled Sum then returns
// the exact total. Boundary sweep plus ping-pong rewind in one.
func TestChaosAccumulatorCancelEveryBoundary(t *testing.T) {
	as := erInputs(10, 300, 8, 6, 78)
	want := matrix.ReferenceAdd(as)
	one := int64(as[0].NNZ()) * entryBytes
	for boundary := 1; boundary <= 6; boundary++ {
		// A ~3-matrix budget leaves a running sum AND pending matrices
		// at Sum time, so the canceled flush has a premapped sum input
		// — the case where a mid-flight abort must not consume the
		// ping-pong buffer flip.
		ac := NewAccumulator(300, 8, 3*one, Options{Algorithm: Hash, SortedOutput: true, Threads: 1})
		for _, a := range as {
			if err := ac.Push(a); err != nil {
				t.Fatal(err)
			}
		}
		if ac.Reductions() == 0 {
			t.Fatal("budget did not force any reduction before Sum; the sweep needs a premapped sum")
		}
		ctx := &cancelAtCall{Context: context.Background(), n: boundary}
		_, err := ac.SumContext(ctx)
		if err == nil {
			// The addition has fewer boundaries than n: the whole flush
			// ran before the fake context fired. The sweep is done.
			if !mustSum(t, ac).Equal(want) {
				t.Errorf("boundary %d: uncanceled sum differs from reference", boundary)
			}
			break
		}
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("boundary %d: SumContext = %v, want ErrCanceled wrapping context.Canceled", boundary, err)
		}
		got, err := ac.Sum()
		if err != nil {
			t.Fatalf("boundary %d: Sum after canceled SumContext: %v", boundary, err)
		}
		if !got.Equal(want) {
			t.Errorf("boundary %d: sum after canceled SumContext differs from reference", boundary)
		}
	}
}

func mustSum(t *testing.T, ac *Accumulator) *matrix.CSC {
	t.Helper()
	got, err := ac.Sum()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestChaosAccumulatorPanicSticky: a panic in an accumulator reduction
// converts to a *PanicError, quarantines the workspace, and poisons
// the accumulator — every later call reports the same error.
func TestChaosAccumulatorPanicSticky(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(17, faults.Rule{Point: faults.PanicInKernel, Key: 0, Count: 1})
	defer faults.Activate(in)()

	as := erInputs(4, 200, 4, 6, 79)
	stats := &OpStats{}
	ac := NewAccumulator(200, 4, 1<<20, Options{Algorithm: Hash, SortedOutput: true, Threads: 1, Stats: stats})
	for _, a := range as {
		if err := ac.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	_, err := ac.Sum()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Sum over a panicking kernel = %v, want *PanicError", err)
	}
	if _, ok := pe.Value.(faults.InjectedPanic); !ok {
		t.Errorf("panic value = %v, want faults.InjectedPanic", pe.Value)
	}
	if n := stats.PanicsRecovered.Load(); n != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", n)
	}
	// Sticky: the rule is spent (Count=1), but the accumulator must
	// not run again on a quarantined workspace.
	if err2 := ac.Push(as[0]); !isPanicErr(err2) {
		t.Errorf("Push after a panic = %v, want the sticky *PanicError", err2)
	}
	if _, err2 := ac.Sum(); !isPanicErr(err2) {
		t.Errorf("Sum after a panic = %v, want the sticky *PanicError", err2)
	}
}

// TestChaosAccumulatorPanicClosesExecutor: quarantining a poisoned
// accumulator's workspace releases its executor's parked workers at
// once, as a poisoned Pool shard does, rather than leaving them parked
// until GC runs the executor's cleanup.
func TestChaosAccumulatorPanicClosesExecutor(t *testing.T) {
	leakcheck.Begin(t)
	as := erInputs(4, 200, 8, 6, 81)
	ac := NewAccumulator(200, 8, 1<<20, Options{Algorithm: Hash, SortedOutput: true, Threads: 2})
	for _, a := range as[:2] {
		if err := ac.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := ac.Flush(); err != nil {
		t.Fatal(err)
	}
	ws := ac.ws
	if ws == nil || ws.ownEx == nil {
		t.Fatal("a Threads: 2 flush left no resident executor")
	}
	in := faults.New(18, faults.Rule{Point: faults.PanicInKernel, Key: 0, Count: 1})
	defer faults.Activate(in)()
	for _, a := range as[2:] {
		if err := ac.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ac.Sum(); !isPanicErr(err) {
		t.Fatalf("Sum over a panicking kernel = %v, want *PanicError", err)
	}
	if ac.ws != nil {
		t.Error("poisoned accumulator kept its workspace")
	}
	if ws.ownEx != nil {
		t.Error("quarantined workspace still owns its executor; its workers stay parked until GC")
	}
}

// TestChaosPooledPanicClosesExecutor: a pooled call that panicked
// closes its workspace instead of pooling it, so the executor's parked
// workers exit at once rather than when GC runs its cleanup.
func TestChaosPooledPanicClosesExecutor(t *testing.T) {
	ws := NewWorkspace(false)
	if _, err := ws.Add(erInputs(4, 200, 8, 6, 84), Options{Algorithm: Hash, Threads: 2}); err != nil {
		t.Fatal(err)
	}
	if ws.ownEx == nil {
		t.Fatal("a Threads: 2 call left no resident executor")
	}
	releasePooled(ws, sched.NewPanicError("injected", 0), nil)
	if ws.ownEx != nil {
		t.Error("a panicked pooled workspace still owns its executor; its workers stay parked until GC")
	}
}

// TestChaosPooledAddPanicCounted: a pooled Add whose kernel panics
// counts the recovered panic in the call's stats, as the Accumulator
// and the Pool shards do when they drop a panicked workspace.
func TestChaosPooledAddPanicCounted(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(19, faults.Rule{Point: faults.PanicInKernel, Key: 0, Count: 1})
	defer faults.Activate(in)()

	stats := &OpStats{}
	_, err := Add(erInputs(4, 200, 8, 6, 85), Options{Algorithm: Hash, Threads: 1, Stats: stats})
	if !isPanicErr(err) {
		t.Fatalf("pooled Add over a panicking kernel = %v, want *PanicError", err)
	}
	if n := stats.PanicsRecovered.Load(); n != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", n)
	}
}

// TestChaosAddContextPreCanceled: the lowest-level context entry point
// rejects an already-canceled context before doing any work.
func TestChaosAddContextPreCanceled(t *testing.T) {
	as := erInputs(4, 100, 4, 4, 80)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AddContext(ctx, as, Options{Algorithm: Hash})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("AddContext with canceled ctx = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	// The same workspace path still works uncanceled.
	got, err := AddContext(context.Background(), as, Options{Algorithm: Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(matrix.ReferenceAdd(as)) {
		t.Error("uncanceled AddContext differs from reference")
	}
}
