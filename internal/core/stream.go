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

// streamOf is the batched reduction the Accumulator and every Pool
// shard share: one budget rule, one claim and one reduce path over a
// running sum and a pending queue. The owners differ only in when they
// reduce and in what a failed batch costs (AccumulatorOf.flush,
// poolShardOf.run).
type streamOf[T matrix.Number] struct {
	budget int64
	opt    OptionsOf[T]

	sum          *matrix.CSCOf[T]
	pending      []*matrix.CSCOf[T]
	pendingBytes int64
	reductions   int

	// ws is the resident workspace: every reduction reuses its scratch,
	// including its resident executor's parked workers, and the running
	// sum lives in its recycled (ping-pong) output buffers — the
	// previous sum is an input to the next reduction, which writes the
	// other buffer, so no reduction reads storage it is overwriting.
	ws *WorkspaceOf[T]
	// batch is the reusable [sum, claimed pieces...] input slice.
	batch []*matrix.CSCOf[T]
}

// maxPendingMatrices caps how many matrices an Accumulator (or a Pool
// shard) buffers before reducing regardless of their byte size, and
// how many one reduction claims. The byte budget alone cannot bound
// the buffer: a flood of zero-nnz deltas — a plausible stream during
// quiet periods — contributes zero bytes and would never trigger one.
const maxPendingMatrices = 1024

// bytesOf is a matrix's in-memory footprint at T's width.
func (st *streamOf[T]) bytesOf(m *matrix.CSCOf[T]) int64 {
	return int64(m.NNZ()) * entryBytesOf[T]()
}

// sumBytes is the running sum's footprint. A k-way reduction reads
// sum + pending, so the sum's bytes count toward the budget exactly
// like the buffered matrices'.
func (st *streamOf[T]) sumBytes() int64 {
	if st.sum == nil {
		return 0
	}
	return st.bytesOf(st.sum)
}

// due reports whether the pending queue should be reduced before extra
// more bytes join it: the next reduction's total input (running sum +
// pending + extra) would pass the budget, or the pending count hit
// maxPendingMatrices, so zero-byte pieces still get reduced.
func (st *streamOf[T]) due(extra int64) bool {
	return len(st.pending) > 0 &&
		(st.sumBytes()+st.pendingBytes+extra > st.budget || len(st.pending) >= maxPendingMatrices)
}

// claim fills batch with the next reduction's input: the running sum,
// then a budget-bounded prefix of pending — pieces until sum + claimed
// would pass the budget, always at least one, at most
// maxPendingMatrices — so a reduction's input never exceeds budget +
// one matrix however far the queue ran ahead. It returns the prefix's
// length and bytes for drop; pending itself is untouched.
func (st *streamOf[T]) claim() (n int, bytes int64) {
	st.batch = st.batch[:0]
	if st.sum != nil {
		st.batch = append(st.batch, st.sum)
	}
	base := st.sumBytes()
	for n < len(st.pending) && n < maxPendingMatrices {
		b := st.bytesOf(st.pending[n])
		if n > 0 && base+bytes+b > st.budget {
			break
		}
		bytes += b
		n++
	}
	st.batch = append(st.batch, st.pending[:n]...)
	return n, bytes
}

// drop removes the first n pending pieces, worth bytes, clearing their
// slots so absorbed matrices can be collected (truncating alone would
// pin them in the backing array).
func (st *streamOf[T]) drop(n int, bytes int64) {
	m := copy(st.pending, st.pending[n:])
	clear(st.pending[m:])
	st.pending = st.pending[:m]
	st.pendingBytes -= bytes
}

// reduce folds the claimed batch into a new running sum with one k-way
// addition. The running sum is already in the monoid's result domain,
// so it re-enters premapped (for Count, mapping it again would
// collapse every accumulated count back to 1). A failed attempt does
// not consume the workspace's ping-pong flip, so the Accumulator's
// next attempt never writes the buffer holding the sum it reads. A
// panic anywhere in the reduction comes back as a *PanicError, as a
// worker's panic does from the executor. The owner releases the batch
// with clearBatch.
func (st *streamOf[T]) reduce(ctx context.Context) (b *matrix.CSCOf[T], err error) {
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, recoverToError(r)
		}
	}()
	if st.ws == nil {
		st.ws = NewWorkspaceOf[T](true)
	}
	premapped := 0
	if st.sum != nil {
		premapped = 1
	}
	return st.ws.addPremapped(ctx, st.batch, st.opt, premapped)
}

// clearBatch drops the batch's references so absorbed matrices can be
// collected.
func (st *streamOf[T]) clearBatch() {
	clear(st.batch)
	st.batch = st.batch[:0]
}

// quarantine retires the workspace a panicking reduction interrupted
// (reduce created it before running anything that can panic) through
// WorkspaceOf.Quarantine, so it is never reused. The running sum stays
// valid — a failed reduction never writes the buffer holding it — and
// is never handed to a new workspace as a write target.
func (st *streamOf[T]) quarantine() {
	st.ws.Quarantine(st.opt.Stats)
	st.ws = nil
}

// Accumulator implements the batched SpKAdd the paper proposes for
// inputs that do not fit in memory simultaneously or that arrive over
// time (§V: "we can still arrange input matrices in multiple batches
// and then use SpKAdd for each batch"; streaming SpKAdd is the paper's
// stated future work). Matrices are buffered until the configured
// memory budget fills, then reduced into the running sum with one
// k-way addition, so the reduction work stays k-way rather than
// degenerating to the pairwise O(k²nd) regime. It is the synchronous
// owner of the batched reduction a Pool shard runs asynchronously:
// both reduce through streamOf.
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
// Options. When the algorithm resolves to Hash, SPA or Heap (Auto's
// choice unless the tables would spill CacheBytes), each batched
// reduction runs the single-pass engine and reads its inputs exactly
// once.
type AccumulatorOf[T matrix.Number] struct {
	rows, cols int
	busy       atomic.Bool
	absorbed   int

	// err is the accumulator's sticky failure: set when a reduction
	// panics (the workspace is quarantined alongside — its scratch is
	// mid-kernel garbage), surfaced by every later call. Cancellation
	// and validation errors are NOT sticky: they leave the buffer and
	// sum untouched and the next call retries the reduction.
	err error

	streamOf[T]
}

// Accumulator is the float64 accumulator, the paper's element type.
type Accumulator = AccumulatorOf[matrix.Value]

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
	return &AccumulatorOf[T]{rows: rows, cols: cols, streamOf: streamOf[T]{budget: budgetBytes, opt: opt}}
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

// Push buffers one matrix, reducing the buffer first if adding it
// would push the next reduction's total input — the running sum plus
// everything pending — past the budget, or if the pending count hits
// maxPendingMatrices (so zero-byte pushes still flush eventually). The
// accumulator keeps a reference to a until the next reduction; callers
// must not mutate it meanwhile. A push no reduction could take is
// refused and leaves the state untouched: a matrix with unsorted
// columns under an algorithm that needs sorted input
// (ErrUnsortedInput), or any matrix under options no reduction can run
// (such as ErrMonoidUnsupported).
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
	if err := admit(a, ac.opt); err != nil {
		return err
	}
	bytes := ac.bytesOf(a)
	if ac.due(bytes) {
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
// while the flag is already held. It reduces through the shared claim
// until nothing is pending — one batch in practice, since Push reduces
// before buffering the matrix that would overflow the budget. A failed
// batch stays pending, so the next call retries it; only a panic is
// sticky.
func (ac *AccumulatorOf[T]) flush(ctx context.Context) error {
	for ac.err == nil && len(ac.pending) > 0 {
		n, bytes := ac.claim()
		sum, err := ac.reduce(ctx)
		ac.clearBatch()
		if err != nil {
			if isPanicErr(err) {
				ac.err = err
				ac.quarantine()
			}
			return err
		}
		ac.sum = sum
		ac.drop(n, bytes)
		ac.reductions++
	}
	return ac.err
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
