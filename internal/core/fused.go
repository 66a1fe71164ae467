package core

import (
	"time"

	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

// This file implements the single-pass execution engines. The paper
// proves SpKAdd's memory-traffic lower bound is O(knd); the classic
// two-phase driver (add.go) streams all k inputs through memory twice
// — once to size the output, once to fill it — so it runs at ~2x that
// bound. Both engines here read each input exactly once:
//
//   - addFused: every worker accumulates its columns' results into a
//     growable per-worker arena of (rows, values) chunks, then a
//     parallel stitch assembles the final CSC from the per-column
//     extents. Peak extra memory ≈ output size.
//
//   - addUpperBound: the output staging area is allocated from the
//     Σ_i nnz(A_i(:,j)) per-column upper bound, filled in one pass,
//     and compacted in parallel. Peak extra memory ≈ total input size,
//     but no arena bookkeeping — cheapest when duplicates are rare.
//
// Both support the Hash, SPA and Heap kernels, sorted and unsorted
// output, coefficients, and all schedules, with output entry-for-entry
// identical (after canonical sort) to the two-phase engine. Both run
// on a Workspace: arenas, staging buffers and column extents survive
// the call, so repeated additions allocate nothing in steady state.

const (
	// upperBoundStagingCap bounds the staging buffer PhasesAuto lets
	// the upper-bound engine allocate (entryBytesOf per input entry —
	// 12 for float64/int64, 8 for float32/int32, 5 for bool) before
	// preferring the arena-based fused engine, whose footprint tracks
	// the output instead of the input.
	upperBoundStagingCap = 1 << 30
	// autoDupRateCutoff is the estimated duplicate fraction above
	// which PhasesAuto stops considering the upper-bound engine: past
	// it, the staging buffer wastes more than a third of its entries.
	autoDupRateCutoff = 0.25
	// arenaChunkEntries sizes fused-arena chunks: 32Ki entries is
	// 384KiB of (row, value) storage, large enough to amortize chunk
	// allocation and small enough not to strand memory per worker.
	arenaChunkEntries = 1 << 15
	// inputWeightsParallelMin is the column count above which the
	// per-column input-nnz weights are computed in parallel.
	inputWeightsParallelMin = 1 << 12
)

// fusedSupported reports whether alg has a single-pass engine.
// SlidingHash keeps the two-pass driver: its row-range partitioning is
// derived from per-part symbolic counts, which a single pass cannot
// provide without giving up the in-cache table guarantee.
func fusedSupported(alg Algorithm) bool {
	switch alg {
	case Hash, SPA, Heap:
		return true
	}
	return false
}

// pickPhases resolves the engine for one call. An explicit request is
// honored whenever the algorithm supports it; Auto reads the shared
// workloadEstimate's balls-into-bins duplicate rate (the same estimate
// autoSelect consumes) and checks memory headroom (see the Phases
// constants and DESIGN.md).
func pickPhases[T matrix.Number](est workloadEstimate, alg Algorithm, opt OptionsOf[T]) Phases {
	if !fusedSupported(alg) {
		return PhasesTwoPass
	}
	if opt.Phases != PhasesAuto {
		return opt.Phases
	}
	if est.rows == 0 || est.cols == 0 || est.total == 0 {
		return PhasesFused
	}
	// Memory headroom: the fused hash engine sizes per-worker tables
	// by input nnz instead of output nnz. If those larger tables would
	// spill the last-level cache, the two-pass engine's smaller
	// numeric tables recover more than the saved symbolic pass costs.
	// Entry cost is T's — a float32 call keeps the fused engine (and
	// the staging budget below) viable at twice the input size.
	if alg == Hash {
		t := sched.Threads(opt.Threads)
		if int64(est.avgColNNZ)*entryBytesOf[T]()*int64(t) > opt.cacheBytes() {
			return PhasesTwoPass
		}
	}
	if est.dupRate <= autoDupRateCutoff && est.total*entryBytesOf[T]() <= upperBoundStagingCap {
		return PhasesUpperBound
	}
	return PhasesFused
}

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

// arena is a worker-private growable store of (row, value) entries.
// Allocations never move: a chunk's backing arrays are extended only
// within their capacity, so sub-slices handed out earlier stay valid
// for the stitch. reset rewinds every chunk instead of dropping it, so
// a workspace-resident arena serves later calls without allocating.
type arenaOf[T matrix.Number] struct {
	chunks []arenaChunkOf[T]
	cur    int // chunk currently being filled
}

type arenaChunkOf[T matrix.Number] struct {
	rows []matrix.Index
	vals []T
}

// reset rewinds the arena for a new call, keeping every chunk's
// storage.
func (ar *arenaOf[T]) reset() {
	for i := range ar.chunks {
		ar.chunks[i].rows = ar.chunks[i].rows[:0]
		ar.chunks[i].vals = ar.chunks[i].vals[:0]
	}
	ar.cur = 0
}

// alloc returns rows/vals slices of length n inside a single chunk
// (capacity-clipped so appends cannot cross into a neighbour),
// advancing past recycled chunks that are too small and appending a
// new chunk only when none fits.
func (ar *arenaOf[T]) alloc(n int) ([]matrix.Index, []T) {
	for {
		if ar.cur >= len(ar.chunks) {
			size := arenaChunkEntries
			if n > size {
				size = n
			}
			ar.chunks = append(ar.chunks, arenaChunkOf[T]{
				rows: make([]matrix.Index, 0, size),
				vals: make([]T, 0, size),
			})
		}
		c := &ar.chunks[ar.cur]
		if cap(c.rows)-len(c.rows) >= n {
			off := len(c.rows)
			c.rows = c.rows[:off+n]
			c.vals = c.vals[:off+n]
			return c.rows[off : off+n : off+n], c.vals[off : off+n : off+n]
		}
		ar.cur++
	}
}

// reserve ensures some chunk has capacity for a single allocation of
// n entries, so under a racy schedule a worker whose arena never saw
// the largest column does not allocate for it as long as its staging
// stays within its chunks. This is a strong guarantee only while a
// worker's total staged volume fits one chunk (the reserved chunk can
// be part-filled by smaller columns before the big one arrives);
// beyond that, appended chunks are recycled on later calls, so racy
// steady-state allocations are amortized toward zero rather than
// strictly zero — the workspace-staged engines (two-pass,
// upper-bound) keep the strict contract at any size.
func (ar *arenaOf[T]) reserve(n int) {
	if n < arenaChunkEntries {
		n = arenaChunkEntries
	}
	for i := range ar.chunks {
		if cap(ar.chunks[i].rows) >= n {
			return
		}
	}
	ar.chunks = append(ar.chunks, arenaChunkOf[T]{
		rows: make([]matrix.Index, 0, n),
		vals: make([]T, 0, n),
	})
}

// shrink gives the tail `unused` entries of the most recent alloc back
// to the chunk, so upper-bound allocations (the heap kernel reserves
// input nnz before knowing the merged count) don't strand arena space.
func (ar *arenaOf[T]) shrink(unused int) {
	if unused <= 0 {
		return
	}
	c := &ar.chunks[ar.cur]
	c.rows = c.rows[:len(c.rows)-unused]
	c.vals = c.vals[:len(c.vals)-unused]
}

// fusedColOf records where one output column was staged in its
// worker's arena; len(rows) is the column's final nnz.
type fusedColOf[T matrix.Number] struct {
	rows []matrix.Index
	vals []T
}

// addFused is the fused single-pass engine (PhasesFused): one pass
// over the inputs accumulates every column into a per-worker arena,
// then a parallel stitch copies the per-column extents into the final
// CSC. There is no symbolic phase; PhaseTimings reports all time as
// Numeric.
func (ws *WorkspaceOf[T]) addFused() (*matrix.CSCOf[T], PhaseTimings, error) {
	var pt PhaseTimings
	n := ws.as[0].Cols
	ws.colScratch(n)
	if err := ws.ctxCheck(); err != nil {
		return nil, pt, err
	}
	if ws.t > len(ws.arenas) {
		arenas := make([]arenaOf[T], ws.t)
		copy(arenas, ws.arenas)
		ws.arenas = arenas
	}
	for i := range ws.arenas {
		ws.arenas[i].reset()
	}
	if cap(ws.cols) < n {
		ws.cols = make([]fusedColOf[T], n)
	}
	ws.cols = ws.cols[:n]

	if err := ws.fillInputWeights(); err != nil {
		return nil, pt, err
	}
	ws.reserveWorkers(ws.weights, false)
	if ws.racySched() {
		// Any column may land on any worker: every participating arena
		// keeps a chunk the largest column fits in.
		maxW := int(maxWeight(ws.weights))
		for i := 0; i < ws.reserveCount(n) && i < len(ws.arenas); i++ {
			ws.arenas[i].reserve(maxW)
		}
	}
	start := time.Now()
	if err := ws.runCols(n, ws.weights, ws.fusedFn); err != nil {
		pt.Numeric = time.Since(start)
		return nil, pt, err
	}
	if err := ws.ctxCheck(); err != nil {
		pt.Numeric = time.Since(start)
		return nil, pt, err
	}

	// Stitch: assemble the final CSC from the per-column extents,
	// load-balanced by output nnz like the two-pass numeric phase.
	for j := 0; j < n; j++ {
		ws.counts[j] = int64(len(ws.cols[j].rows))
	}
	b := ws.allocOutput(ws.as[0].Rows, n, ws.counts)
	ws.b = b
	err := ws.runCols(n, ws.counts, ws.stitchFn)
	pt.Numeric = time.Since(start)
	if err != nil {
		return nil, pt, err
	}
	if ws.opt.Stats != nil {
		// EntriesMoved counts materialized matrix storage only (see
		// OpStats); arena staging is scratch, like a hash table.
		ws.opt.Stats.EntriesMoved.Add(b.ColPtr[n])
	}
	return b, pt, nil
}

// fusedBody is the fused engine's single input pass: emit each column
// into the worker's arena. Every column of [lo, hi) is written —
// including empty ones, so a recycled extents slice holds no stale
// entries.
//
//spkadd:noalloc executor region body of the fused engine (arena growth is amortized in arena.alloc)
func (ws *WorkspaceOf[T]) fusedBody(w, lo, hi int) {
	ws.kernelFault()
	s, ar := ws.worker(w), &ws.arenas[w]
	for j := lo; j < hi; j++ {
		inz := int(ws.weights[j])
		if inz == 0 {
			ws.cols[j] = fusedColOf[T]{}
			continue
		}
		// Reserve the input-nnz upper bound, emit, and return the
		// unused tail to the chunk for the worker's next column.
		rows, vals := ar.alloc(inz)
		nz := emitColInto(s, ws.as, j, inz, ws.alg, ws.opt.SortedOutput, ws.coeffs, ws.monP, rows, vals)
		ar.shrink(inz - nz)
		ws.cols[j] = fusedColOf[T]{rows: rows[:nz], vals: vals[:nz]}
	}
	s.flushStats(ws.opt.Stats)
}

// stitchBody copies the staged extents of columns [lo, hi) into the
// final CSC.
//
//spkadd:noalloc executor region body: copies arena columns into the final CSC
func (ws *WorkspaceOf[T]) stitchBody(_, lo, hi int) {
	b := ws.b
	for j := lo; j < hi; j++ {
		copy(b.RowIdx[b.ColPtr[j]:b.ColPtr[j+1]], ws.cols[j].rows)
		copy(b.Val[b.ColPtr[j]:b.ColPtr[j+1]], ws.cols[j].vals)
	}
}

// emitColInto computes one output column with the single-pass kernels,
// writing into outRows/outVals — length inz, the Σ_i nnz(A_i(:,j))
// upper bound — and returns the entry count. Both single-pass engines
// share it: the fused engine points it at an arena reservation, the
// upper-bound engine at the column's staging extent. This is also
// where the drop-identity output policy applies: only the single-pass
// engines see values before the output is sized, so only they can
// drop identity-valued results (validation pins DropIdentity monoids
// here).
//
//spkadd:noalloc single-pass emit: accumulate one column straight into arena-backed storage
func emitColInto[T matrix.Number](ws *workerStateOf[T], as []*matrix.CSCOf[T], j, inz int, alg Algorithm, sorted bool, coeffs []T, mon *monoidStateOf[T], outRows []matrix.Index, outVals []T) int {
	nz := 0
	switch alg {
	case Hash:
		tab := hashAccumCol(ws, as, j, inz, coeffs, mon)
		nz = tab.Len()
		r, v := tab.AppendEntries(outRows[:0:inz], outVals[:0:inz])
		if len(r) != nz {
			panic("core: single-pass hash emitted a different count than it accumulated")
		}
		if sorted {
			sortPairs(r, v)
		}
	case SPA:
		acc := spaAccumCol(ws, as, j, coeffs, mon)
		nz = acc.Len()
		var r []matrix.Index
		if sorted {
			r, _ = acc.AppendSorted(outRows[:0:inz], outVals[:0:inz])
		} else {
			r, _ = acc.AppendUnsorted(outRows[:0:inz], outVals[:0:inz])
		}
		acc.Clear()
		if len(r) != nz {
			panic("core: single-pass SPA emitted a different count than it accumulated")
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
// (PhasesUpperBound): the staging area is allocated from the
// per-column Σ_i nnz(A_i(:,j)) bound, filled in one pass over the
// inputs, and compacted in parallel into the exact-size output.
func (ws *WorkspaceOf[T]) addUpperBound() (*matrix.CSCOf[T], PhaseTimings, error) {
	var pt PhaseTimings
	n := ws.as[0].Cols
	ws.colScratch(n)
	if err := ws.ctxCheck(); err != nil {
		return nil, pt, err
	}

	if err := ws.fillInputWeights(); err != nil {
		return nil, pt, err
	}
	ws.reserveWorkers(ws.weights, false)
	start := time.Now()
	ws.ubPtr = grow(ws.ubPtr, n+1)
	ws.ubPtr[0] = 0
	for j := 0; j < n; j++ {
		ws.ubPtr[j+1] = ws.ubPtr[j] + ws.weights[j]
	}
	total := int(ws.ubPtr[n])
	ws.stRows = grow(ws.stRows, total)
	ws.stVals = grow(ws.stVals, total)
	if err := ws.runCols(n, ws.weights, ws.ubFn); err != nil {
		pt.Numeric = time.Since(start)
		return nil, pt, err
	}
	if err := ws.ctxCheck(); err != nil {
		pt.Numeric = time.Since(start)
		return nil, pt, err
	}

	// Compact: copy each column's filled prefix to its final position.
	// Out of place — final extents can overlap staged extents of other
	// columns, so in-place parallel moves would race.
	b := ws.allocOutput(ws.as[0].Rows, n, ws.counts)
	ws.b = b
	err := ws.runCols(n, ws.counts, ws.compactFn)
	pt.Numeric = time.Since(start)
	if err != nil {
		return nil, pt, err
	}
	if ws.opt.Stats != nil {
		ws.opt.Stats.EntriesMoved.Add(b.ColPtr[n])
	}
	return b, pt, nil
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
