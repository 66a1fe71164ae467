package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"spkadd/internal/matrix"
)

// ErrAccumulatorInUse is returned when an Accumulator is called from a
// second goroutine while a call is already in flight. Like the public
// Adder, an Accumulator owns one resident workspace and one running
// sum; failing fast beats silently corrupting both. Use one
// Accumulator per goroutine, or a sharded Pool for concurrent
// producers.
var ErrAccumulatorInUse = errors.New("spkadd: Accumulator used from multiple goroutines concurrently")

// Accumulator implements the batched SpKAdd the paper proposes for
// inputs that do not fit in memory simultaneously or that arrive over
// time (§V: "we can still arrange input matrices in multiple batches
// and then use SpKAdd for each batch"; streaming SpKAdd is the paper's
// stated future work). Matrices are buffered until the configured
// memory budget fills, then reduced into the running sum with one
// k-way addition, so the reduction work stays k-way rather than
// degenerating to the pairwise O(k²nd) regime.
//
// Reductions run under the configured Options, including the combine
// monoid: a Count accumulator streams occurrence frequencies because
// each reduction maps fresh inputs only — the running sum re-enters
// in the monoid's result domain and is folded back in unmapped.
//
// An Accumulator is not safe for concurrent use; overlapping calls
// are detected by an atomic busy flag and fail with
// ErrAccumulatorInUse instead of corrupting the resident workspace.
// Each addition it performs is internally parallel per the configured
// Options, including the execution-engine policy: when Phases
// resolves to the single-pass engine (the common PhasesAuto outcome
// for in-cache workloads) each batched reduction reads its inputs
// exactly once.
type AccumulatorOf[T matrix.Number] struct {
	rows, cols int
	opt        OptionsOf[T]
	budget     int64
	busy       atomic.Bool

	sum          *matrix.CSCOf[T]
	pending      []*matrix.CSCOf[T]
	pendingBytes int64
	absorbed     int
	reductions   int

	// err is the accumulator's sticky failure: set when a reduction
	// panics (the workspace is quarantined alongside — its scratch is
	// mid-kernel garbage), surfaced by every later call. Cancellation
	// and validation errors are NOT sticky: they leave the buffer and
	// sum untouched and the next call retries the reduction.
	err error

	// ws is the accumulator's resident workspace: every reduction
	// reuses its scratch structures — including the workspace's
	// resident executor, so multi-threaded reductions reuse parked
	// workers instead of spawning goroutines per flush (set
	// Options.Executor to share a worker budget with other callers) —
	// and the running sum lives in the workspace's recycled
	// (ping-pong) output buffers: the previous sum is always an input
	// to the next reduction, which writes the other buffer, so no
	// reduction reads storage it is overwriting.
	ws *WorkspaceOf[T]
	// batch is the reusable [sum, pending...] input slice.
	batch []*matrix.CSCOf[T]
}

// Accumulator is the float64 accumulator, the paper's element type.
type Accumulator = AccumulatorOf[matrix.Value]

// entryBytes is the in-memory footprint of one stored float64 entry
// (4-byte index + 8-byte value); entryBytesOf generalizes it per
// element type.
const entryBytes = 12

// maxPendingMatrices caps how many matrices an Accumulator (or a Pool
// shard) buffers before reducing regardless of their byte size. The
// byte budget alone cannot bound the buffer: zero-nnz matrices
// contribute zero bytes, so a flood of empty deltas — a perfectly
// plausible streaming workload during quiet periods — would grow the
// pending slice without ever triggering a flush.
const maxPendingMatrices = 1024

// NewAccumulator returns an accumulator for rows x cols matrices that
// reduces its buffer whenever the next reduction's total input — the
// running sum plus the buffered matrices — would exceed budgetBytes
// (<=0 means 256MB). The paper's batching argument applies verbatim:
// the batch size only affects memory, not the asymptotic work, as long
// as each reduction is k-way.
func NewAccumulator(rows, cols int, budgetBytes int64, opt Options) *Accumulator {
	return NewAccumulatorOf[matrix.Value](rows, cols, budgetBytes, opt)
}

// NewAccumulatorOf is NewAccumulator for any supported element type.
func NewAccumulatorOf[T matrix.Number](rows, cols int, budgetBytes int64, opt OptionsOf[T]) *AccumulatorOf[T] {
	if budgetBytes <= 0 {
		budgetBytes = 256 << 20
	}
	return &AccumulatorOf[T]{rows: rows, cols: cols, opt: opt, budget: budgetBytes}
}

// acquire takes the accumulator's busy flag, detecting overlapping
// calls from a second goroutine.
func (ac *AccumulatorOf[T]) acquire() error {
	if !ac.busy.CompareAndSwap(false, true) {
		return ErrAccumulatorInUse
	}
	return nil
}

func (ac *AccumulatorOf[T]) release() { ac.busy.Store(false) }

// sumBytes is the in-memory footprint of the running sum. A k-way
// reduction reads sum + pending, so the sum's bytes count toward the
// reduction budget exactly like the buffered matrices'.
func (ac *AccumulatorOf[T]) sumBytes() int64 {
	if ac.sum == nil {
		return 0
	}
	return int64(ac.sum.NNZ()) * entryBytesOf[T]()
}

// Push buffers one matrix, reducing the buffer first if adding it
// would push the next reduction's total input — the running sum plus
// everything pending — past the budget, or if the pending count hits
// maxPendingMatrices (so zero-byte pushes still flush eventually). The
// accumulator keeps a reference to a until the next reduction; callers
// must not mutate it meanwhile.
//
// The budget bounds a reduction's input at budget plus one matrix: the
// matrix that overflows is buffered after the flush it triggers, so it
// joins the next reduction instead. Once the running sum alone
// outgrows the budget every push flushes, degenerating gracefully to
// sum-plus-one-matrix reductions — the streaming minimum.
func (ac *AccumulatorOf[T]) Push(a *matrix.CSCOf[T]) error {
	return ac.PushContext(context.Background(), a)
}

// PushContext is Push with cooperative cancellation of the reduction a
// full buffer triggers. A canceled reduction is clean: the matrix is
// NOT buffered, the pending matrices and the running sum are untouched,
// and the next uncanceled call retries the reduction.
func (ac *AccumulatorOf[T]) PushContext(ctx context.Context, a *matrix.CSCOf[T]) error {
	if err := ac.acquire(); err != nil {
		return err
	}
	defer ac.release()
	if ac.err != nil {
		return ac.err
	}
	if a.Rows != ac.rows || a.Cols != ac.cols {
		return fmt.Errorf("%w: pushed %dx%d, accumulator is %dx%d",
			ErrDimMismatch, a.Rows, a.Cols, ac.rows, ac.cols)
	}
	bytes := int64(a.NNZ()) * entryBytesOf[T]()
	if len(ac.pending) > 0 &&
		(ac.sumBytes()+ac.pendingBytes+bytes > ac.budget || len(ac.pending) >= maxPendingMatrices) {
		if err := ac.flush(ctx); err != nil {
			return err
		}
	}
	ac.pending = append(ac.pending, a)
	ac.pendingBytes += bytes
	ac.absorbed++
	return nil
}

// Flush reduces all buffered matrices into the running sum.
func (ac *AccumulatorOf[T]) Flush() error {
	return ac.FlushContext(context.Background())
}

// FlushContext is Flush with cooperative cancellation; see
// PushContext for the cancellation contract.
func (ac *AccumulatorOf[T]) FlushContext(ctx context.Context) error {
	if err := ac.acquire(); err != nil {
		return err
	}
	defer ac.release()
	return ac.flush(ctx)
}

// flush is Flush without the busy-flag acquisition, for internal use
// while the flag is already held.
func (ac *AccumulatorOf[T]) flush(ctx context.Context) error {
	if ac.err != nil {
		return ac.err
	}
	if len(ac.pending) == 0 {
		return nil
	}
	if ac.ws == nil {
		ac.ws = NewWorkspaceOf[T](true)
	}
	ac.batch = ac.batch[:0]
	premapped := 0
	if ac.sum != nil {
		// The running sum is already in the monoid's result domain:
		// it re-enters the reduction unmapped (for Count, re-mapping
		// would collapse every accumulated count back to 1).
		ac.batch = append(ac.batch, ac.sum)
		premapped = 1
	}
	ac.batch = append(ac.batch, ac.pending...)
	sum, err := ac.reduce(ctx, premapped)
	if err != nil {
		// Drop the batch references either way; pending still holds
		// everything unreduced.
		clear(ac.batch)
		ac.batch = ac.batch[:0]
		if isPanicErr(err) {
			// A panic mid-kernel leaves the workspace's scratch (and the
			// in-progress output buffer — never the buffer holding the
			// running sum, which a failed call does not consume) in an
			// indeterminate state: quarantine the workspace and go
			// sticky. The running sum's storage stays valid; it is
			// never handed to a new workspace as a write target.
			ac.err = err
			ac.ws = nil
			if ac.opt.Stats != nil {
				ac.opt.Stats.PanicsRecovered.Add(1)
			}
		}
		return err
	}
	ac.sum = sum
	// Drop the buffered references so absorbed matrices can be
	// collected (truncating alone would pin them in the backing
	// arrays).
	clear(ac.batch)
	ac.batch = ac.batch[:0]
	clear(ac.pending)
	ac.pending = ac.pending[:0]
	ac.pendingBytes = 0
	ac.reductions++
	return nil
}

// reduce runs one batched reduction, converting a panic on the inline
// (single-threaded) kernel path into the same *PanicError the executor
// reports for multi-threaded regions.
func (ac *AccumulatorOf[T]) reduce(ctx context.Context, premapped int) (b *matrix.CSCOf[T], err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoverToError(r)
		}
	}()
	return ac.ws.addPremapped(ctx, ac.batch, ac.opt, premapped)
}

// Sum flushes and returns the current total. The returned matrix is
// owned by the accumulator (its storage lives in the accumulator's
// recycled workspace buffers); it remains valid (and unmodified) until
// further Push calls, after which callers should re-request it —
// callers that need a longer-lived copy should Clone it.
func (ac *AccumulatorOf[T]) Sum() (*matrix.CSCOf[T], error) {
	return ac.SumContext(context.Background())
}

// SumContext is Sum with cooperative cancellation of the final flush;
// see PushContext for the cancellation contract. In particular a
// canceled SumContext leaves the accumulator fully consistent: a later
// Sum reduces the same buffered matrices and returns the same total.
func (ac *AccumulatorOf[T]) SumContext(ctx context.Context) (*matrix.CSCOf[T], error) {
	if err := ac.acquire(); err != nil {
		return nil, err
	}
	defer ac.release()
	if err := ac.flush(ctx); err != nil {
		return nil, err
	}
	if ac.sum == nil {
		return matrix.NewCSCOf[T](ac.rows, ac.cols, 0), nil
	}
	return ac.sum, nil
}

// K returns the number of matrices absorbed so far.
func (ac *AccumulatorOf[T]) K() int { return ac.absorbed }

// Reductions returns how many k-way additions have run, a measure of
// how the budget translated into batching.
func (ac *AccumulatorOf[T]) Reductions() int { return ac.reductions }
