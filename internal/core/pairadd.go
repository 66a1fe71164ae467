package core

import (
	"sort"

	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

// pairAddMerge adds two CSC matrices with sorted columns using the
// linear ColAdd merge of Algorithm 1, parallel over columns on the
// workspace's executor. The result has sorted columns. This is the
// specialised 2-way addition the paper's "2-way Incremental" and
// "2-way Tree" rows use.
func pairAddMerge[T matrix.Arith](a, b *matrix.CSCOf[T], opt OptionsOf[T], ex *sched.Executor) (*matrix.CSCOf[T], error) {
	t := sched.Threads(opt.Threads)
	n := a.Cols
	out := &matrix.CSCOf[T]{Rows: a.Rows, Cols: n, ColPtr: make([]int64, n+1)}

	// Symbolic pass: count merged entries per column.
	counts := make([]int64, n)
	err := runColsOn(ex, t, pairWeights(a, b), opt.Stats, func(_ int, lo, hi int) {
		for j := lo; j < hi; j++ {
			counts[j] = int64(mergeCount(a.ColRows(j), b.ColRows(j)))
		}
	})
	if err != nil {
		return nil, err
	}
	for j := 0; j < n; j++ {
		out.ColPtr[j+1] = out.ColPtr[j] + counts[j]
	}
	nnz := out.ColPtr[n]
	out.RowIdx = make([]matrix.Index, nnz)
	out.Val = make([]T, nnz)

	// Numeric pass: merge into the preallocated slices.
	err = runColsOn(ex, t, counts, opt.Stats, func(_ int, lo, hi int) {
		for j := lo; j < hi; j++ {
			olo, ohi := out.ColPtr[j], out.ColPtr[j+1]
			mergeInto(
				a.ColRows(j), a.ColVals(j),
				b.ColRows(j), b.ColVals(j),
				out.RowIdx[olo:ohi], out.Val[olo:ohi],
			)
		}
	})
	if err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		opt.Stats.EntriesMoved.Add(nnz)
	}
	return out, nil
}

// pairAddMap adds two matrices through a generic map accumulator per
// column. It is deliberately an "off-the-shelf" implementation with
// the constant factors of a library routine that cannot exploit the
// problem structure — the repository's stand-in for the paper's
// MKL-based 2-way baselines (mkl_sparse_d_add).
func pairAddMap[T matrix.Arith](a, b *matrix.CSCOf[T], opt OptionsOf[T], ex *sched.Executor) (*matrix.CSCOf[T], error) {
	t := sched.Threads(opt.Threads)
	n := a.Cols
	// Accumulate each column in a map, then emit sorted entries.
	type col struct {
		rows []matrix.Index
		vals []T
	}
	cols := make([]col, n)
	err := runColsOn(ex, t, pairWeights(a, b), opt.Stats, func(_ int, lo, hi int) {
		for j := lo; j < hi; j++ {
			acc := make(map[matrix.Index]T)
			for _, src := range []*matrix.CSCOf[T]{a, b} {
				rows, vals := src.ColRows(j), src.ColVals(j)
				for p := range rows {
					acc[rows[p]] += vals[p]
				}
			}
			c := col{
				rows: make([]matrix.Index, 0, len(acc)),
				vals: make([]T, 0, len(acc)),
			}
			for r := range acc {
				c.rows = append(c.rows, r)
			}
			sort.Slice(c.rows, func(x, y int) bool { return c.rows[x] < c.rows[y] })
			for _, r := range c.rows {
				c.vals = append(c.vals, acc[r])
			}
			cols[j] = c
		}
	})
	if err != nil {
		return nil, err
	}
	out := &matrix.CSCOf[T]{Rows: a.Rows, Cols: n, ColPtr: make([]int64, n+1)}
	for j := 0; j < n; j++ {
		out.ColPtr[j+1] = out.ColPtr[j] + int64(len(cols[j].rows))
	}
	nnz := out.ColPtr[n]
	out.RowIdx = make([]matrix.Index, 0, nnz)
	out.Val = make([]T, 0, nnz)
	for j := 0; j < n; j++ {
		out.RowIdx = append(out.RowIdx, cols[j].rows...)
		out.Val = append(out.Val, cols[j].vals...)
	}
	if opt.Stats != nil {
		opt.Stats.EntriesMoved.Add(nnz)
	}
	return out, nil
}

// pairWeights returns per-column input nnz for load balancing a pair
// addition.
func pairWeights[T matrix.Number](a, b *matrix.CSCOf[T]) []int64 {
	w := make([]int64, a.Cols)
	for j := range w {
		w[j] = int64(a.ColNNZ(j) + b.ColNNZ(j))
	}
	return w
}

// runColsOn runs columns [0, len(weights)) as a region of the given
// resident executor, weighted by weights, recording the region's load
// statistics into stats (when non-nil). Single-worker regions (t <= 1,
// one column, or a nil executor) run inline on the caller, unrecorded
// — they carry no balance information and must stay free of locking
// so a Threads==1 reduction (every multi-shard Pool) pays nothing.
//
// A panic in the body — on a resident worker or on the inline path —
// comes back as a *sched.PanicError; the region always completes its
// barrier first, so no worker still runs when the error surfaces.
func runColsOn(ex *sched.Executor, t int, weights []int64, stats *OpStats, body func(worker, lo, hi int)) error {
	n := len(weights)
	if n == 0 {
		return nil
	}
	t = sched.Threads(t)
	if t <= 1 || n == 1 || ex == nil {
		return sched.RunInline(n, body)
	}
	ls, err := ex.Weighted(weights, t, body)
	if stats != nil {
		stats.RecordRegion(ls)
	}
	return err
}
