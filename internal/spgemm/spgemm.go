// Package spgemm implements the local sparse matrix-matrix
// multiplication kernel used inside the simulated distributed sparse
// SUMMA (§IV-E): a hash-accumulator Gustavson algorithm on CSC with a
// symbolic phase for exact output sizing, parallel over output columns.
//
// The kernel can emit sorted or unsorted output columns. The unsorted
// mode is the point of the paper's Fig 6: because hash-based SpKAdd
// accepts unsorted inputs, the local multiplications feeding it can
// skip sorting their intermediate products, making the multiply phase
// about 20% faster.
package spgemm

import (
	"errors"
	"fmt"

	"spkadd/internal/hashtab"
	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

// Options configure a multiplication.
type Options struct {
	// Threads is the worker count; <1 means GOMAXPROCS.
	Threads int
	// SortOutput requests ascending row order within output columns.
	SortOutput bool
	// LoadFactor bounds accumulator occupancy. Valid range (0, 1];
	// <=0 means 0.5, values above 1 clamp to 1.0.
	LoadFactor float64
	// Executor, when non-nil, runs both parallel phases on the given
	// resident worker pool instead of one created for the call — the
	// same sharing contract as the SpKAdd Options.Executor, used by the
	// SUMMA simulation to keep one worker set across every process's
	// multiply and reduction.
	Executor *sched.Executor
}

func (o Options) loadFactor() float64 {
	return hashtab.ClampLoadFactor(o.LoadFactor)
}

// ErrDimMismatch reports operands whose inner dimensions disagree.
var ErrDimMismatch = errors.New("spgemm: dimension mismatch")

// Mul computes C = A*B. A is m x k, B is k x n, C is m x n.
func Mul(a, b *matrix.CSC, opt Options) (*matrix.CSC, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrDimMismatch, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	t := sched.Threads(opt.Threads)
	n := b.Cols
	lf := opt.loadFactor()

	// flops[j] = Σ_{(k,·) ∈ B(:,j)} nnz(A(:,k)): the classic upper
	// bound on nnz(C(:,j)) and the load-balancing weight.
	flops := make([]int64, n)
	for j := 0; j < n; j++ {
		var f int64
		for _, kcol := range b.ColRows(j) {
			f += int64(a.ColNNZ(int(kcol)))
		}
		flops[j] = f
	}

	// Symbolic phase: exact nnz(C(:,j)) via index-only hash tables.
	counts := make([]int64, n)
	type worker struct {
		sym *hashtab.Symbolic
		tab *hashtab.Table
	}
	workers := make([]*worker, t)
	getWorker := func(w int) *worker {
		if workers[w] == nil {
			workers[w] = &worker{}
		}
		return workers[w]
	}
	// Both phases run weighted — flops bound the symbolic work, exact
	// counts the numeric work — as regions of the caller's executor, or
	// of one scoped to this call. A panic in a body comes back as a
	// *sched.PanicError (the executor's workers recover and survive);
	// propagate it instead of publishing a half-filled product.
	ex := opt.Executor
	if ex == nil {
		ex = sched.NewExecutor(t)
		defer ex.Close()
	}
	_, err := ex.Weighted(flops, t, func(w, lo, hi int) {
		ws := getWorker(w)
		for j := lo; j < hi; j++ {
			if flops[j] == 0 {
				continue
			}
			if ws.sym == nil {
				ws.sym = hashtab.NewSymbolic(int(flops[j]), lf)
			} else {
				ws.sym.Grow(int(flops[j]), lf)
			}
			brows := b.ColRows(j)
			for _, kcol := range brows {
				for _, r := range a.ColRows(int(kcol)) {
					ws.sym.Insert(r)
				}
			}
			counts[j] = int64(ws.sym.Len())
		}
	})
	if err != nil {
		return nil, err
	}

	c := &matrix.CSC{Rows: a.Rows, Cols: n, ColPtr: make([]int64, n+1)}
	for j := 0; j < n; j++ {
		c.ColPtr[j+1] = c.ColPtr[j] + counts[j]
	}
	nnz := c.ColPtr[n]
	c.RowIdx = make([]matrix.Index, nnz)
	c.Val = make([]matrix.Value, nnz)

	// Numeric phase: accumulate a(:,k)*b(k,j) into hash tables.
	_, err = ex.Weighted(counts, t, func(w, lo, hi int) {
		ws := getWorker(w)
		for j := lo; j < hi; j++ {
			need := int(counts[j])
			if need == 0 {
				continue
			}
			if ws.tab == nil {
				ws.tab = hashtab.NewTable(need, lf)
			} else {
				ws.tab.Grow(need, lf)
			}
			brows, bvals := b.ColRows(j), b.ColVals(j)
			for p := range brows {
				kcol := int(brows[p])
				bv := bvals[p]
				arows, avals := a.ColRows(kcol), a.ColVals(kcol)
				for q := range arows {
					hashtab.Accum(ws.tab, arows[q], avals[q]*bv)
				}
			}
			outRows := c.RowIdx[c.ColPtr[j]:c.ColPtr[j+1]]
			outVals := c.Val[c.ColPtr[j]:c.ColPtr[j+1]]
			r, v := ws.tab.AppendEntries(outRows[:0:need], outVals[:0:need])
			if len(r) != need || &r[0] != &outRows[0] {
				panic("spgemm: symbolic nnz disagrees with numeric nnz")
			}
			if opt.SortOutput {
				sortPairs(r, v)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// sortPairs sorts (rows, vals) jointly by ascending row index.
func sortPairs(rows []matrix.Index, vals []matrix.Value) {
	// Insertion sort is sufficient here: SUMMA intermediate columns
	// are short on average; fall back to heapsort-free quicksort for
	// longer runs.
	if len(rows) < 24 {
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && rows[j] < rows[j-1]; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		return
	}
	// Median of three pseudo-randomly placed samples. The numeric phase
	// emits a column in first-seen order, one sorted run per A(:,k)
	// merged in, and on a few long runs a fixed middle pivot sits near
	// a run's end, so every partition peels off only a sliver.
	n := uint64(len(rows))
	x := n * 0x9E3779B97F4A7C15
	a, b, c := rows[(x>>11)%n], rows[(x>>27)%n], rows[(x>>43)%n]
	pivot := max(min(a, b), min(max(a, b), c))
	// Three-way partition.
	lt, i, gt := 0, 0, len(rows)
	for i < gt {
		switch {
		case rows[i] < pivot:
			rows[i], rows[lt] = rows[lt], rows[i]
			vals[i], vals[lt] = vals[lt], vals[i]
			lt++
			i++
		case rows[i] > pivot:
			gt--
			rows[i], rows[gt] = rows[gt], rows[i]
			vals[i], vals[gt] = vals[gt], vals[i]
		default:
			i++
		}
	}
	sortPairs(rows[:lt], vals[:lt])
	sortPairs(rows[gt:], vals[gt:])
}
