package core

import (
	"fmt"

	"spkadd/internal/hashtab"
	"spkadd/internal/matrix"
)

// MulOptions configure a multiplication.
type MulOptions struct {
	// Threads is the worker count; <1 means GOMAXPROCS.
	Threads int
	// SortOutput requests ascending row order within output columns.
	// Hash SpKAdd accepts unsorted inputs, which lets the SUMMA
	// multiplies feeding it skip the sort (the paper's Fig 6).
	SortOutput bool
}

// Mul computes C = A·B on a pooled workspace, as Add does: only the
// returned, caller-owned product is allocated.
func Mul[T matrix.Number](a, b *matrix.CSCOf[T], opt MulOptions) (*matrix.CSCOf[T], error) {
	ws := wsPoolFor[T]().Get().(*WorkspaceOf[T])
	c, err := ws.Mul(a, b, opt)
	if !isPanicErr(err) { // see AddTimed
		wsPoolFor[T]().Put(ws)
	}
	return c, err
}

// Mul computes C = A·B, A m x k and B k x n, on the single-pass
// engine. By Gustavson's column formulation,
// C(:,j) = Σ_{k∈B(:,j)} B(k,j)·A(:,k) is a scaled k-way addition of
// columns of A. Its flop count, flops(j) = Σ_{k∈B(:,j)} nnz(A(:,k)),
// bounds nnz(C(:,j)), so it is both the column's weight and its
// staging extent: hash SpGEMM's upper-bound allocation (Nagasaka et
// al., Parallel Computing 2019), with no symbolic pass. Each column
// accumulates p over B(:,j), then q over A(:,k), and is emitted in
// first-insertion order, sorted when asked, so the product does not
// depend on the thread count.
func (ws *WorkspaceOf[T]) Mul(a, b *matrix.CSCOf[T], opt MulOptions) (*matrix.CSCOf[T], error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrDimMismatch, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if ws.kit == nil {
		return nil, fmt.Errorf("%w: the element type has no Plus to multiply with", ErrMonoidUnsupported)
	}
	ws.begin(nil, planOf[T]{alg: Hash}, OptionsOf[T]{Threads: opt.Threads, SortedOutput: opt.SortOutput}, nil)
	ws.mulA, ws.mulB = a, b
	ws.colScratch(b.Cols)
	for j := range ws.weights {
		for _, k := range b.ColRows(j) {
			ws.weights[j] += int64(a.ColNNZ(int(k)))
		}
	}
	cur := ws.cur
	c, _, err := ws.stageAndCompact(a.Rows, ws.mulFn)
	ws.end()
	if err != nil {
		ws.cur = cur // see addTimedPremapped
	}
	return c, err
}

// mulBody accumulates the product columns [lo, hi) into the worker's
// hash table, whose window is sized by the column's flops, and emits
// each into its staging extent.
//
//spkadd:noalloc executor region body of Mul
func (ws *WorkspaceOf[T]) mulBody(w, lo, hi int) {
	ws.kernelFault()
	s := ws.worker(w)
	for j := lo; j < hi; j++ {
		f := int(ws.weights[j])
		if f == 0 {
			continue
		}
		tab := s.hashTable(f)
		s.kit.mulAccum(tab, ws.mulA, ws.mulB, j)
		outRows := ws.stRows[ws.ubPtr[j]:ws.ubPtr[j+1]]
		outVals := ws.stVals[ws.ubPtr[j]:ws.ubPtr[j+1]]
		ws.counts[j] = int64(emitStaged(s, tab, outRows, outVals, ws.opt.SortedOutput))
	}
	s.flushStats(ws.opt.Stats)
}

// mulAccumPlus is Mul's Plus accumulation loop: column j of A·B as the
// k-way addition Σ_{k∈B(:,j)} B(k,j)·A(:,k), one inlined stamped probe
// per flop.
//
//spkadd:noalloc per-column Plus loop of Mul
func mulAccumPlus[T matrix.Arith](tab *hashtab.TableOf[T], a, b *matrix.CSCOf[T], j int) {
	brows, bvals := b.ColRows(j), b.ColVals(j)
	for p, k := range brows {
		bv := bvals[p]
		arows, avals := a.ColRows(int(k)), a.ColVals(int(k))
		for q := range arows {
			hashtab.Accum(tab, arows[q], avals[q]*bv)
		}
	}
}
