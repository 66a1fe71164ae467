package core

import (
	"time"

	"spkadd/internal/hashtab"
	"spkadd/internal/matrix"
)

// This file implements the single-pass execution engine, the one
// engine of Hash, SPA and Heap. The paper proves SpKAdd's
// memory-traffic lower bound is O(knd); a two-phase driver streams
// all k inputs through memory twice — once to size the output, once
// to fill it — so it runs at ~2x that bound. addUpperBound reads each
// input exactly once: the output staging area is allocated from the
// Σ_i nnz(A_i(:,j)) per-column upper bound, filled in one pass, and
// compacted in parallel. Peak extra memory ≈ total input size.
// SlidingHash keeps the two-phase driver (add.go): its per-part
// symbolic counts are what keep each table within its cache share.
//
// It supports sorted and unsorted output, coefficients, and any
// thread count; with SortedOutput every algorithm's result is
// bit-identical to unpartitioned SlidingHash, the paper's two-phase
// hash. It runs on a Workspace: staging buffers and column extents
// survive the call, so repeated additions allocate nothing in steady
// state. Mul (mul.go) is its second caller: the same tail,
// stageAndCompact, runs a product with each column's flops as its
// staging bound.

// upperBoundStagingCap bounds the staging buffer Auto lets Hash's
// single-pass engine allocate (entryBytesOf per input entry — 12 for
// float64/int64, 8 for float32/int32, 5 for bool). Past it, Auto
// picks SlidingHash, whose two-pass driver needs no staging.
const upperBoundStagingCap = 1 << 30

// allocCSC builds an empty CSC whose ColPtr is the prefix sum of the
// per-column counts, with RowIdx/Val allocated to match.
func allocCSC[T matrix.Number](rows, cols int, counts []int64) *matrix.CSCOf[T] {
	b := &matrix.CSCOf[T]{Rows: rows, Cols: cols, ColPtr: make([]int64, cols+1)}
	for j := 0; j < cols; j++ {
		b.ColPtr[j+1] = b.ColPtr[j] + counts[j]
	}
	nnz := b.ColPtr[cols]
	b.RowIdx = make([]matrix.Index, nnz)
	b.Val = make([]T, nnz)
	return b
}

// emitColInto computes one output column with the single-pass kernels,
// writing into outRows/outVals — length inz, the Σ_i nnz(A_i(:,j))
// upper bound, the column's staging extent — and returns the entry
// count. This is also where the drop-identity output policy applies:
// only the single-pass engine sees values before the output is sized,
// so only it can drop identity-valued results (validation keeps
// DropIdentity monoids off SlidingHash).
//
//spkadd:noalloc single-pass emit: accumulate one column straight into its staging extent
func emitColInto[T matrix.Number](ws *workerStateOf[T], as []*matrix.CSCOf[T], j, inz int, alg Algorithm, sorted bool, coeffs []T, mon *monoidStateOf[T], outRows []matrix.Index, outVals []T) int {
	nz := 0
	switch alg {
	case Hash:
		nz = emitStaged(ws, hashAccumCol(ws, as, j, inz, coeffs, mon), outRows, outVals, sorted)
	case SPA:
		acc := spaAccumCol(ws, as, j, coeffs, mon)
		nz = acc.Len()
		r, v := acc.AppendUnsorted(outRows[:0:inz], outVals[:0:inz])
		acc.Clear()
		if len(r) != nz {
			panic("core: single-pass SPA emitted a different count than it accumulated")
		}
		if sorted {
			ws.sorter.sort(r, v)
		}
	case Heap:
		nz = heapMergeCol(ws, as, j, outRows, outVals, coeffs, mon)
	default:
		panic("core: single-pass engine dispatched an unsupported algorithm")
	}
	if mon != nil && mon.drop {
		nz = dropIdentityEntries(outRows, outVals, nz, mon.def.Identity)
	}
	return nz
}

// emitStaged gathers the table's entries, in first-insertion order,
// into a staging extent whose length bounds the column, sorts them
// with the worker's row sorter when asked, and returns their count.
func emitStaged[T matrix.Number](w *workerStateOf[T], tab *hashtab.TableOf[T], outRows []matrix.Index, outVals []T, sorted bool) int {
	r, v := tab.AppendEntries(outRows[:0:len(outRows)], outVals[:0:len(outVals)])
	if len(r) > len(outRows) {
		panic("core: single-pass hash column outgrew its staging bound")
	}
	if sorted {
		w.sorter.sort(r, v)
	}
	return len(r)
}

// dropIdentityEntries compacts the first nz entries in place, removing
// those whose value equals the monoid identity, and returns the new
// count. Compaction is order-preserving, so a sorted column stays
// sorted.
func dropIdentityEntries[T matrix.Number](rows []matrix.Index, vals []T, nz int, id T) int {
	out := 0
	for p := 0; p < nz; p++ {
		if vals[p] == id {
			continue
		}
		rows[out], vals[out] = rows[p], vals[p]
		out++
	}
	return out
}

// addUpperBound is the upper-bound single-pass engine
// (PhasesUpperBound) of Hash, SPA and Heap: the staging area is
// allocated from the per-column Σ_i nnz(A_i(:,j)) bound, filled in
// one pass over the inputs, and compacted in parallel into the
// exact-size output.
func (ws *WorkspaceOf[T]) addUpperBound() (*matrix.CSCOf[T], PhaseTimings, error) {
	var pt PhaseTimings
	ws.colScratch(ws.as[0].Cols)
	if err := ws.ctxCheck(); err != nil {
		return nil, pt, err
	}
	ws.fillInputWeights()
	b, numeric, err := ws.stageAndCompact(ws.as[0].Rows, ws.ubFn)
	pt.Numeric = numeric
	return b, pt, err
}

// stageAndCompact is the single-pass tail both callers share, addition
// and Mul, once ws.weights holds every column's staging bound: it
// reserves worker scratch for the largest bound, lays out one staging
// extent per column, runs body over the columns as a region weighted
// by the bounds (body records each column's exact count in ws.counts),
// and compacts the filled prefixes into the exact-size rows x n
// output. The returned duration excludes the reservation, which is
// scratch sizing like the workspace growth no timer ever saw.
func (ws *WorkspaceOf[T]) stageAndCompact(rows int, body func(w, lo, hi int)) (*matrix.CSCOf[T], time.Duration, error) {
	n := len(ws.weights)
	ws.reserveWorkers(ws.weights, rows, false)
	start := time.Now()
	ws.ubPtr = grow(ws.ubPtr, n+1)
	ws.ubPtr[0] = 0
	for j := 0; j < n; j++ {
		ws.ubPtr[j+1] = ws.ubPtr[j] + ws.weights[j]
	}
	total := int(ws.ubPtr[n])
	ws.stRows = grow(ws.stRows, total)
	ws.stVals = grow(ws.stVals, total)
	if err := ws.runCols(ws.weights, body); err != nil {
		return nil, time.Since(start), err
	}
	if err := ws.ctxCheck(); err != nil {
		return nil, time.Since(start), err
	}

	// Compact: copy each column's filled prefix to its final position.
	// Out of place — final extents can overlap staged extents of other
	// columns, so in-place parallel moves would race.
	b := ws.allocOutput(rows, n, ws.counts)
	ws.b = b
	if err := ws.runCols(ws.counts, ws.compactFn); err != nil {
		return nil, time.Since(start), err
	}
	if ws.opt.Stats != nil {
		ws.opt.Stats.EntriesMoved.Add(b.ColPtr[n])
	}
	return b, time.Since(start), nil
}

// ubBody fills the staging extents of columns [lo, hi) in one input
// pass, recording each column's exact nnz. Empty columns keep the
// zero count colScratch installed.
//
//spkadd:noalloc executor region body of the upper-bound engine
func (ws *WorkspaceOf[T]) ubBody(w, lo, hi int) {
	ws.kernelFault()
	s := ws.worker(w)
	for j := lo; j < hi; j++ {
		inz := int(ws.weights[j])
		if inz == 0 {
			continue
		}
		outRows := ws.stRows[ws.ubPtr[j]:ws.ubPtr[j+1]]
		outVals := ws.stVals[ws.ubPtr[j]:ws.ubPtr[j+1]]
		ws.counts[j] = int64(emitColInto(s, ws.as, j, inz, ws.alg, ws.opt.SortedOutput, ws.coeffs, ws.monP, outRows, outVals))
	}
	s.flushStats(ws.opt.Stats)
}

// compactBody copies the filled staging prefix of columns [lo, hi)
// into the exact-size output.
//
//spkadd:noalloc executor region body: compacts upper-bound columns into place
func (ws *WorkspaceOf[T]) compactBody(_, lo, hi int) {
	b := ws.b
	for j := lo; j < hi; j++ {
		copy(b.RowIdx[b.ColPtr[j]:b.ColPtr[j+1]], ws.stRows[ws.ubPtr[j]:ws.ubPtr[j]+ws.counts[j]])
		copy(b.Val[b.ColPtr[j]:b.ColPtr[j+1]], ws.stVals[ws.ubPtr[j]:ws.ubPtr[j]+ws.counts[j]])
	}
}
