package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"spkadd/internal/faults"
	"spkadd/internal/faults/leakcheck"
	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

// The chaos suite drives the streaming stack through the fault
// schedules of internal/faults and asserts the failure model of
// DESIGN.md §11: panics poison exactly the shard they hit, transient
// errors retry and recover, cancellation never corrupts a later sum,
// and nothing leaks a goroutine. CI runs it under -race (the "chaos"
// step selects on the TestChaos prefix).

// columnEqual compares one column of two matrices entry-for-entry
// (both sides sorted by construction in these tests).
func columnEqual(a, b *matrix.CSC, j int) bool {
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

// TestChaosPoolRetryRecovers: a transient reduction failure that stops
// within the retry budget is invisible in the result — exact parity,
// all shards healthy — and visible in the stats.
func TestChaosPoolRetryRecovers(t *testing.T) {
	leakcheck.Begin(t)
	// The rule fails the first two reduction attempts of every shard;
	// the third attempt (retry #2) succeeds.
	in := faults.New(12, faults.Rule{Point: faults.FailReduction, Key: faults.KeyAny, Count: 2})
	defer faults.Activate(in)()

	as := erInputs(10, 300, 8, 6, 72)
	want := matrix.ReferenceAdd(as)
	stats := &OpStats{}
	p := NewPool(300, 8, PoolOptions{
		Shards:       2,
		MaxRetries:   3,
		RetryBackoff: 50 * time.Microsecond,
		Add:          Options{Algorithm: Hash, SortedOutput: true, Stats: stats},
	})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Sum()
	if err != nil {
		t.Fatalf("Sum after recovered transients: %v", err)
	}
	if !got.Equal(want) {
		t.Error("sum after retried transients differs from the one-shot reference")
	}
	for i, h := range p.Health() {
		if h.State != HealthOK {
			t.Errorf("Health()[%d] = %v after successful retries, want ok", i, h.State)
		}
	}
	if n := stats.Retries.Load(); n != 2 {
		t.Errorf("Retries = %d, want 2 (Count=2 failures hit one shard's first reduction)", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPoolRetryExhausted: a persistent failure exhausts the
// bounded retries and degrades the shard — sticky ordinary error, not
// poisoned — while the rest of the pool stays healthy.
func TestChaosPoolRetryExhausted(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(13, faults.Rule{Point: faults.FailReduction, Key: 1})
	defer faults.Activate(in)()

	as := erInputs(8, 300, 8, 6, 73)
	stats := &OpStats{}
	p := NewPool(300, 8, PoolOptions{
		Shards:       2,
		MaxRetries:   2,
		RetryBackoff: 50 * time.Microsecond,
		Add:          Options{Algorithm: Hash, SortedOutput: true, Stats: stats},
	})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	_, err := p.Sum()
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("Sum = %v, want a ShardError for shard 0", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Errorf("shard error does not unwrap to the injected fault: %v", err)
	}
	h := p.Health()
	if h[0].State != HealthDegraded {
		t.Errorf("Health()[0] = %v, want degraded (ordinary error, not a panic)", h[0].State)
	}
	if h[1].State != HealthOK {
		t.Errorf("Health()[1] = %v, want ok", h[1].State)
	}
	if n := stats.Retries.Load(); n != 2 {
		t.Errorf("Retries = %d, want MaxRetries=2", n)
	}
	if n := stats.ShardsDegraded.Load(); n != 1 {
		t.Errorf("ShardsDegraded = %d, want 1", n)
	}
	if n := stats.PanicsRecovered.Load(); n != 0 {
		t.Errorf("PanicsRecovered = %d for an ordinary error, want 0", n)
	}
	if err := p.Close(); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("Close = %v, want the sticky injected error", err)
	}
}

// TestChaosHealthLattice walks one shard through the full health
// state lattice: ok → degraded (retry exhaustion drops the batch) →
// ok again (the next successful reduction clears the degradation) →
// poisoned (a panic is terminal; no later success ever clears it).
// At every step the other shard stays OK and the stitched sum carries
// exactly the inputs that survived.
func TestChaosHealthLattice(t *testing.T) {
	leakcheck.Begin(t)
	const rows, cols = 300, 8
	as := erInputs(6, rows, cols, 6, 81)
	stats := &OpStats{}
	p := NewPool(rows, cols, PoolOptions{
		Shards:       2,
		MaxRetries:   1,
		RetryBackoff: 50 * time.Microsecond,
		Add:          Options{Algorithm: Hash, SortedOutput: true, Stats: stats},
	})
	defer p.Close()
	shardState := func(i int) ShardHealth { return p.Health()[i] }
	assertStates := func(step string, want0, want1 HealthState) {
		t.Helper()
		if got := shardState(0).State; got != want0 {
			t.Fatalf("%s: Health()[0] = %v, want %v", step, got, want0)
		}
		if got := shardState(1).State; got != want1 {
			t.Fatalf("%s: Health()[1] = %v, want %v", step, got, want1)
		}
	}

	// Step 1: healthy baseline.
	if err := p.Push(as[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sum(); err != nil {
		t.Fatal(err)
	}
	assertStates("baseline", HealthOK, HealthOK)

	// Step 2: exhaust the retries of shard 0 (zone key 1) — the batch
	// holding as[1] is dropped and the shard turns degraded, while
	// shard 1 absorbs its slice of as[1] normally.
	deactivate := faults.Activate(faults.New(21,
		faults.Rule{Point: faults.FailReduction, Key: 1, Count: 2}))
	if err := p.Push(as[1]); err != nil {
		t.Fatal(err)
	}
	_, err := p.Sum()
	deactivate()
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("Sum while degraded = %v, want a ShardError for shard 0", err)
	}
	assertStates("degraded", HealthDegraded, HealthOK)
	if h := shardState(0); h.Dropped == 0 {
		t.Error("degraded shard reports Dropped = 0, want the exhausted batch counted")
	}
	if n := stats.ShardsDegraded.Load(); n != 1 {
		t.Errorf("ShardsDegraded = %d, want 1", n)
	}

	// Step 3: the next successful reduction recovers the shard. The
	// dropped piece stays dropped: shard 0's columns must sum as[0] and
	// as[2] only, shard 1's all three.
	if err := p.Push(as[2]); err != nil {
		t.Fatal(err)
	}
	got, err := p.Sum()
	if err != nil {
		t.Fatalf("Sum after recovery = %v, want nil (degradation cleared)", err)
	}
	assertStates("recovered", HealthOK, HealthOK)
	if n := stats.ShardsRecovered.Load(); n != 1 {
		t.Errorf("ShardsRecovered = %d, want 1", n)
	}
	if d := shardState(0).Dropped; d == 0 {
		t.Error("recovered shard lost its Dropped record")
	}
	wantLossy := matrix.ReferenceAdd([]*matrix.CSC{as[0], as[2]})
	wantFull := matrix.ReferenceAdd(as[:3])
	c0, c1 := sched.Span(cols, 2, 0)
	for j := 0; j < cols; j++ {
		want := wantFull
		if j >= c0 && j < c1 {
			want = wantLossy
		}
		if !columnEqual(got, want, j) {
			t.Errorf("column %d after recovery differs from its expected survivors", j)
		}
	}

	// Step 4: a panic is terminal. Poison shard 0, then prove a later
	// clean reduction cannot resurrect it.
	deactivate = faults.Activate(faults.New(22,
		faults.Rule{Point: faults.PanicInKernel, Key: 1, Count: 1}))
	if err := p.Push(as[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sum(); !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("Sum after panic = %v, want a ShardError for shard 0", err)
	}
	deactivate()
	assertStates("poisoned", HealthPoisoned, HealthOK)
	if err := p.Push(as[4]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sum(); !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("Sum after poison + clean push = %v, want the sticky ShardError", err)
	}
	assertStates("poisoned stays poisoned", HealthPoisoned, HealthOK)
	var pe *PanicError
	if h := shardState(0); !errors.As(h.Err, &pe) {
		t.Errorf("poisoned shard's health error = %v, want *PanicError", h.Err)
	}
	if n := stats.ShardsPoisoned.Load(); n != 1 {
		t.Errorf("ShardsPoisoned = %d, want 1", n)
	}
	if n := stats.ShardsRecovered.Load(); n != 1 {
		t.Errorf("ShardsRecovered = %d after poisoning, want still 1", n)
	}
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

// TestChaosRandomizedTransients: a seeded probabilistic schedule of
// transient-only faults (failures within the retry budget, small
// stalls) must be fully absorbed — exact parity, every shard healthy.
func TestChaosRandomizedTransients(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(0xC0FFEE,
		faults.Rule{Point: faults.FailReduction, Key: faults.KeyAny, Prob: 0.3},
		faults.Rule{Point: faults.SlowReduction, Key: faults.KeyAny, Prob: 0.2, Delay: time.Millisecond},
	)
	defer faults.Activate(in)()

	as := erInputs(24, 400, 12, 8, 77)
	want := matrix.ReferenceAdd(as)
	stats := &OpStats{}
	p := NewPool(400, 12, PoolOptions{
		Shards:       3,
		BudgetBytes:  64 * entryBytes * 3, // several reductions per shard
		MaxRetries:   16,                  // ample: P(17 straight 30% failures) ~ 1e-9
		RetryBackoff: 20 * time.Microsecond,
		Add:          Options{Algorithm: Hash, SortedOutput: true, Stats: stats},
	})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Sum()
	if err != nil {
		t.Fatalf("Sum under transient chaos: %v", err)
	}
	if !got.Equal(want) {
		t.Error("sum under transient-only chaos differs from the one-shot reference")
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
