package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spkadd/internal/faults"
	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

// ErrNoInputs is returned when the input collection is empty.
var ErrNoInputs = errors.New("spkadd: no input matrices")

// ErrDimMismatch is returned when inputs do not share dimensions.
var ErrDimMismatch = errors.New("spkadd: input dimension mismatch")

// ErrUnsortedInput is returned when an algorithm that requires sorted
// columns (2-way merge, heap; Table I) receives unsorted input.
var ErrUnsortedInput = errors.New("spkadd: algorithm requires columns sorted by row index")

// Add computes B = Σ A_i with the configured algorithm.
func Add[T matrix.Number](as []*matrix.CSCOf[T], opt OptionsOf[T]) (*matrix.CSCOf[T], error) {
	b, _, err := AddTimed(as, opt)
	return b, err
}

// AddTimed is Add, additionally reporting the wall-clock split between
// the symbolic and numeric phases (the separate series of Fig 4).
// 2-way algorithms have no symbolic phase; their full time is reported
// as Numeric.
//
// Scratch state comes from a pool of workspaces, so repeated one-shot
// calls amortize every internal buffer; only the returned matrix is
// freshly allocated (the caller owns it). Callers that also want the
// output storage recycled use a Workspace (or the public Adder)
// directly.
func AddTimed[T matrix.Number](as []*matrix.CSCOf[T], opt OptionsOf[T]) (*matrix.CSCOf[T], PhaseTimings, error) {
	ws := wsPoolFor[T]().Get().(*WorkspaceOf[T])
	b, pt, err := ws.AddTimed(as, opt)
	// Put only when the workspace is known clean: if a kernel panicked
	// (a caller mutating inputs mid-call, an invariant check firing) —
	// surfaced as a *PanicError now that parallel regions recover — the
	// workspace holds half-accumulated state and pooling it would feed
	// that to an unrelated future caller as silent corruption.
	if !isPanicErr(err) {
		wsPoolFor[T]().Put(ws)
	}
	return b, pt, err
}

// AddContext is Add with cooperative cancellation: the engines check
// ctx at phase boundaries and abandon the call with an error wrapping
// ErrCanceled (or ErrDeadline), leaving no partial result.
func AddContext[T matrix.Number](ctx context.Context, as []*matrix.CSCOf[T], opt OptionsOf[T]) (*matrix.CSCOf[T], error) {
	ws := wsPoolFor[T]().Get().(*WorkspaceOf[T])
	b, err := ws.AddContext(ctx, as, opt)
	if !isPanicErr(err) {
		wsPoolFor[T]().Put(ws)
	}
	return b, err
}

// AddScaled computes the weighted sum B = Σ coeffs[i] * A_i, the form
// gradient averaging and linear combinations need. Only the k-way
// algorithms support coefficients (the 2-way baselines would need
// coefficient bookkeeping at every tree level); Auto resolves to a
// k-way algorithm, so the zero Options value works.
func AddScaled[T matrix.Number](as []*matrix.CSCOf[T], coeffs []T, opt OptionsOf[T]) (*matrix.CSCOf[T], error) {
	ws := wsPoolFor[T]().Get().(*WorkspaceOf[T])
	b, err := ws.AddScaled(as, coeffs, opt)
	if !isPanicErr(err) { // see AddTimed
		wsPoolFor[T]().Put(ws)
	}
	return b, err
}

// validateDims checks the input collection for emptiness and dimension
// agreement.
func validateDims[T matrix.Number](as []*matrix.CSCOf[T]) error {
	if len(as) == 0 {
		return ErrNoInputs
	}
	rows, cols := as[0].Rows, as[0].Cols
	for i, a := range as {
		if a.Rows != rows || a.Cols != cols {
			return fmt.Errorf("%w: matrix %d is %dx%d, want %dx%d",
				ErrDimMismatch, i, a.Rows, a.Cols, rows, cols)
		}
	}
	return nil
}

// kernelFault is the numeric kernels' fault-injection site, at the top
// of every single- and two-pass numeric body. The faultKey is the
// caller's fault zone (a pool shard's 1-based index, 0 for direct
// calls), so a chaos schedule can target one shard's kernels. Disabled
// cost: one atomic load per region chunk.
func (ws *WorkspaceOf[T]) kernelFault() {
	key := ws.opt.faultKey
	if faults.Panics(faults.PanicInKernel, key) {
		if ws.opt.Stats != nil {
			ws.opt.Stats.FaultsInjected.Add(1)
		}
		panic(faults.InjectedPanic{Point: faults.PanicInKernel, Key: key})
	}
}

func unsortedErr(alg Algorithm) error {
	return fmt.Errorf("%w: %v", ErrUnsortedInput, alg)
}

// allColumnsSorted reports whether every input has sorted columns.
// The scan is linear in the total input nnz, far below the cost of the
// addition itself.
func allColumnsSorted[T matrix.Number](as []*matrix.CSCOf[T]) bool {
	for _, a := range as {
		if !a.IsColumnSorted() {
			return false
		}
	}
	return true
}

// autoSelect implements the paper's practical guidance (Fig 2): the
// hash family wins across shapes and sparsities. It picks SlidingHash
// once the per-thread symbolic tables, sized by the mean combined
// input nnz per column (the paper's kd), would spill CacheBytes, or
// once Hash's single-pass staging buffer would pass
// upperBoundStagingCap (SlidingHash's two-pass driver stages
// nothing); plain Hash otherwise. It reads each input's NNZ and the
// column count only, O(k).
//
//spkadd:noalloc
func autoSelect[T matrix.Number](as []*matrix.CSCOf[T], opt OptionsOf[T]) Algorithm {
	cols := int64(as[0].Cols)
	if cols == 0 {
		return Hash
	}
	var total int64
	for _, a := range as {
		total += int64(a.NNZ())
	}
	t := int64(sched.Threads(opt.Threads))
	if total/cols*BytesPerSymbolicEntry*t > opt.cacheBytes() {
		return SlidingHash
	}
	if total*entryBytesOf[T]() > upperBoundStagingCap {
		return SlidingHash
	}
	return Hash
}

// addKWay is SlidingHash's two-phase driver: a symbolic phase
// computes nnz(B(:,j)) for every column (load-balanced by input nnz),
// the output is allocated in one shot, and the numeric phase fills
// each column independently (load-balanced by output nnz). This is
// the parallelization strategy of §III-A: thread-private data
// structures, no synchronization inside a column. Hash, SPA and Heap
// run the single-pass engine instead (singlepass.go).
func (ws *WorkspaceOf[T]) addKWay() (*matrix.CSCOf[T], PhaseTimings, error) {
	var pt PhaseTimings
	n := ws.as[0].Cols
	ws.colScratch(n)
	if err := ws.ctxCheck(); err != nil {
		return nil, pt, err
	}

	// Symbolic phase: per-column output sizes, balanced by input nnz.
	// The weights double as the per-column input nnz the symbolic
	// kernel needs, so it is computed exactly once — outside the
	// timer, where the seed computed it, to keep the Fig 4 phase
	// split comparable. Reservation (a no-op at one thread) stays
	// outside the timers too: it is scratch sizing, like the workspace
	// growth the timers never saw.
	ws.fillInputWeights()
	ws.reserveWorkers(ws.weights, ws.as[0].Rows, true)
	symStart := time.Now()
	err := ws.runCols(ws.weights, ws.symFn)
	pt.Symbolic = time.Since(symStart)
	if err != nil {
		return nil, pt, err
	}
	if err := ws.ctxCheck(); err != nil {
		return nil, pt, err
	}

	// Allocate the output in one shot from the symbolic counts.
	b := ws.allocOutput(ws.as[0].Rows, n, ws.counts)
	ws.b = b
	nnz := b.ColPtr[n]

	// Numeric phase: fill columns, balanced by output nnz. Validation
	// keeps DropIdentity monoids off this driver, so the symbolic
	// counts always agree with the numeric fill. Workers reserve by
	// input nnz: the numeric tables are sized per row-range part of
	// the input, which can exceed the column's output nnz.
	ws.reserveWorkers(ws.weights, ws.as[0].Rows, false)
	numStart := time.Now()
	err = ws.runCols(ws.counts, ws.numFn)
	pt.Numeric = time.Since(numStart)
	if err != nil {
		return nil, pt, err
	}
	if ws.opt.Stats != nil {
		ws.opt.Stats.EntriesMoved.Add(nnz)
	}
	return b, pt, nil
}

// symBody is the symbolic phase body: one worker sizing the columns of
// [lo, hi) with its thread-private tables.
func (ws *WorkspaceOf[T]) symBody(w, lo, hi int) {
	s := ws.worker(w)
	for j := lo; j < hi; j++ {
		ws.counts[j] = int64(slidingSymbolicCol(s, ws.as, j, int(ws.weights[j]), ws.t, ws.cache, ws.opt.MaxTableEntries, ws.sortedIn))
	}
	s.flushStats(ws.opt.Stats)
}

// numBody is the numeric phase body: fill the exactly-sized output
// columns of [lo, hi).
func (ws *WorkspaceOf[T]) numBody(w, lo, hi int) {
	ws.kernelFault()
	s, b := ws.worker(w), ws.b
	for j := lo; j < hi; j++ {
		outRows := b.RowIdx[b.ColPtr[j]:b.ColPtr[j+1]]
		outVals := b.Val[b.ColPtr[j]:b.ColPtr[j+1]]
		slidingHashAddCol(s, ws.as, j, outRows, outVals, ws.opt.SortedOutput, ws.t, ws.cache, ws.opt.MaxTableEntries, ws.sortedIn, ws.coeffs, ws.monP)
	}
	s.flushStats(ws.opt.Stats)
}
