package core

import (
	"spkadd/internal/hashtab"
	"spkadd/internal/kheap"
	"spkadd/internal/matrix"
	"spkadd/internal/sched"
	"spkadd/internal/spa"
)

// workerStateOf holds the thread-private data structures of one worker:
// the paper's design keeps one heap / SPA / hash table per thread and
// reuses it across all columns the thread processes (§III-A) — and,
// living in a Workspace, across every call the workspace serves.
//
// tabHW is a high-water mark: the key count the numeric hash table's
// current probe window was last sized for. Consecutive columns of
// similar size skip the redundant Grow (and its SizeFor re-derivation)
// entirely — a Reset (epoch bump) suffices while the requested size
// stays within [hw/4, hw], the band in which the window is at most 4x
// oversized, preserving the narrow-window cache guarantee hashtab's
// Grow exists to provide. The symbolic table has no mark: only
// SlidingHash uses it, and always sizes it exactly.
type workerStateOf[T matrix.Number] struct {
	table *hashtab.TableOf[T]
	sym   *hashtab.Symbolic
	heap  *kheap.HeapOf[T]
	acc   *spa.SPAOf[T]
	pos   []int64 // per-matrix cursors for the heap kernel
	// kit binds the instantiation's Plus fast-path loops (nil for
	// bool, whose calls are always monoid-generic; see kitFor).
	kit    *numKit[T]
	lf     float64
	tabHW  int            // key count the numeric table's window was sized for
	sorter rowSorterOf[T] // every sorted emit's row sorter (rowsort.go)
}

func newWorkerStateOf[T matrix.Number](k int, lf float64) *workerStateOf[T] {
	return &workerStateOf[T]{lf: lf, pos: make([]int64, k), kit: kitFor[T]()}
}

// prepare adapts a workspace-resident worker to a new call's input
// count and load factor. A load-factor change invalidates the
// high-water mark so the next table request re-derives its window.
func (w *workerStateOf[T]) prepare(k int, lf float64) {
	if lf != w.lf {
		w.lf = lf
		w.tabHW = 0
	}
	if cap(w.pos) < k {
		w.pos = make([]int64, k)
	}
	w.pos = w.pos[:k]
}

func (w *workerStateOf[T]) hashTable(n int) *hashtab.TableOf[T] {
	if n <= w.tabHW && n >= w.tabHW>>2 && w.table != nil {
		w.table.Reset()
		return w.table
	}
	return w.hashTableSized(n)
}

// hashTableSized always (re-)derives the probe window for exactly n
// keys. The sliding-hash kernels use it directly: their per-part
// tables are sized to fit a cache budget (or the Fig 4 MaxTableEntries
// cap), and the high-water band's up-to-4x-oversized window would
// silently void that in-cache guarantee.
func (w *workerStateOf[T]) hashTableSized(n int) *hashtab.TableOf[T] {
	if w.table == nil {
		w.table = hashtab.NewTableOf[T](n, w.lf)
	} else {
		w.table.Grow(n, w.lf)
	}
	w.tabHW = n
	return w.table
}

// symTableSized is hashTableSized for the symbolic table.
func (w *workerStateOf[T]) symTableSized(n int) *hashtab.Symbolic {
	if w.sym == nil {
		w.sym = hashtab.NewSymbolic(n, w.lf)
	} else {
		w.sym.Grow(n, w.lf)
	}
	return w.sym
}

func (w *workerStateOf[T]) kheap(k int) *kheap.HeapOf[T] {
	if w.heap == nil {
		w.heap = kheap.NewOf[T](k)
		return w.heap
	}
	w.heap.Reset()
	w.heap.Grow(k)
	return w.heap
}

func (w *workerStateOf[T]) spa(m int) *spa.SPAOf[T] {
	if w.acc == nil {
		w.acc = spa.NewOf[T](m)
		return w.acc
	}
	w.acc.Grow(m)
	return w.acc
}

// flushStats adds the worker's structure counters into s and resets
// them so repeated phases don't double count. The reset happens even
// when s is nil: a resident or pooled worker serves Stats-less calls
// too, and their counts must not leak into a later call's Stats.
func (w *workerStateOf[T]) flushStats(s *OpStats) {
	var probes, symProbes, heapOps, touches int64
	if w.table != nil {
		probes, w.table.Probes = w.table.Probes, 0
	}
	if w.sym != nil {
		symProbes, w.sym.Probes = w.sym.Probes, 0
	}
	if w.heap != nil {
		heapOps, w.heap.Ops = w.heap.Ops, 0
	}
	if w.acc != nil {
		touches, w.acc.Touches = w.acc.Touches, 0
	}
	if s == nil {
		return
	}
	s.HashProbes.Add(probes + symProbes)
	s.SymProbes.Add(symProbes)
	s.HeapOps.Add(heapOps)
	s.SPATouches.Add(touches)
}

// --- The Plus fast-path kit ---
//
// The kernels are generic over every matrix.Number, but the "+" fast
// path exists only for the arithmetic types — bool has no "+=", and a
// per-element type switch would put dispatch back inside the loops the
// generic refactor must not slow down. Go resolves the tension with a
// constraint split: the fast-path loops are free functions constrained
// to matrix.Arith (so each instantiation inlines hashtab.Accum /
// spa.Accum to a branch-once "+=" loop), collected into a per-type
// numKit bound once at worker construction. A [T Number] kernel
// crosses into [T Arith] code through one indirect call per column —
// never per element — and bool, the only Number outside Arith, gets a
// nil kit that validation guarantees is never consulted (a bool call
// without an explicit monoid fails validate).

// pairAdder is a 2-way addition routine: merge-based (specialised) or
// map-based (library stand-in). It lives in the kit because both
// implementations are Plus-only (validate rejects generic monoids on
// the 2-way baselines).
type pairAdder[T matrix.Number] func(a, b *matrix.CSCOf[T], opt OptionsOf[T], ex *sched.Executor) (*matrix.CSCOf[T], error)

// numKit collects one arithmetic instantiation's Plus fast-path
// kernels. Fields, not methods: the concrete functions carry the
// tighter matrix.Arith constraint, which a method on a [T Number] type
// cannot.
type numKit[T matrix.Number] struct {
	hashAccum    func(tab *hashtab.TableOf[T], as []*matrix.CSCOf[T], j int, coeffs []T)
	spaAccum     func(acc *spa.SPAOf[T], as []*matrix.CSCOf[T], j int, coeffs []T)
	slidingAccum func(tab *hashtab.TableOf[T], as []*matrix.CSCOf[T], j int, r1, r2 matrix.Index, sortedIn bool, coeffs []T)
	heapMerge    func(w *workerStateOf[T], as []*matrix.CSCOf[T], j int, outRows []matrix.Index, outVals, coeffs []T) int
	mulAccum     func(tab *hashtab.TableOf[T], a, b *matrix.CSCOf[T], j int)
	pairMerge    pairAdder[T]
	pairMap      pairAdder[T]
}

func makeKit[T matrix.Arith]() numKit[T] {
	return numKit[T]{
		hashAccum:    hashAccumPlus[T],
		spaAccum:     spaAccumPlus[T],
		slidingAccum: slidingAccumPlus[T],
		heapMerge:    heapMergePlus[T],
		mulAccum:     mulAccumPlus[T],
		pairMerge:    pairAddMerge[T],
		pairMap:      pairAddMap[T],
	}
}

var (
	kitF64 = makeKit[float64]()
	kitF32 = makeKit[float32]()
	kitI32 = makeKit[int32]()
	kitI64 = makeKit[int64]()
)

// kitFor returns T's Plus fast-path kit, nil for bool (validation
// never lets a bool call reach a Plus path). The type switch runs once
// per worker construction, not per call.
func kitFor[T matrix.Number]() *numKit[T] {
	var z T
	switch any(z).(type) {
	case float64:
		return any(&kitF64).(*numKit[T])
	case float32:
		return any(&kitF32).(*numKit[T])
	case int32:
		return any(&kitI32).(*numKit[T])
	case int64:
		return any(&kitI64).(*numKit[T])
	}
	return nil
}

// hashAccumPlus is the hash algorithm's Plus accumulation loop
// (lines 5-12 of Algorithm 5): per entry, one inlined stamped probe
// with "+=".
//
//spkadd:noalloc per-column Plus loop of the hash kernels
func hashAccumPlus[T matrix.Arith](tab *hashtab.TableOf[T], as []*matrix.CSCOf[T], j int, coeffs []T) {
	for i, a := range as {
		c := coeff(coeffs, i)
		rows, vals := a.ColRows(j), a.ColVals(j)
		for p := range rows {
			hashtab.Accum(tab, rows[p], vals[p]*c)
		}
	}
}

// spaAccumPlus is the SPA's Plus accumulation loop (lines 5-7 of
// Algorithm 4).
//
//spkadd:noalloc per-column Plus loop of the SPA kernels
func spaAccumPlus[T matrix.Arith](acc *spa.SPAOf[T], as []*matrix.CSCOf[T], j int, coeffs []T) {
	for i, a := range as {
		c := coeff(coeffs, i)
		rows, vals := a.ColRows(j), a.ColVals(j)
		for p := range rows {
			spa.Accum(acc, rows[p], vals[p]*c)
		}
	}
}

// slidingAccumPlus accumulates the [r1, r2) row-range slice of column
// j into tab — the Plus inner loop of Algorithm 8's per-part pass.
//
//spkadd:noalloc per-part Plus loop of the sliding hash kernel
func slidingAccumPlus[T matrix.Arith](tab *hashtab.TableOf[T], as []*matrix.CSCOf[T], j int, r1, r2 matrix.Index, sortedIn bool, coeffs []T) {
	for i, a := range as {
		c := coeff(coeffs, i)
		if sortedIn {
			rows, vals := a.ColRange(j, r1, r2)
			for p := range rows {
				hashtab.Accum(tab, rows[p], vals[p]*c)
			}
			continue
		}
		rows, vals := a.ColRows(j), a.ColVals(j)
		for p := range rows {
			if rows[p] >= r1 && rows[p] < r2 {
				hashtab.Accum(tab, rows[p], vals[p]*c)
			}
		}
	}
}

// coeff returns the scaling coefficient for input matrix i; a nil
// slice means unscaled addition. Multiplying by the default 1 is exact
// for every arithmetic type (IEEE-754 for the floats), so the unscaled
// path needs no branch.
func coeff[T matrix.Arith](coeffs []T, i int) T {
	if coeffs == nil {
		return 1
	}
	return coeffs[i]
}

// --- SlidingHash's symbolic kernel: nnz(B(:,j)) ---
//
// The symbolic phase never touches values, so it is generic over
// every element type with no Arith split: one shared index-only
// hashtab.Symbolic serves all instantiations.

// slidingSymbolicCol is Algorithm 7: when the symbolic table would
// spill out of cache, count over row ranges [r1, r2), one in-cache
// table at a time. Row ranges are located by binary search when
// columns are sorted (the paper's implementation) and by a filtering
// scan otherwise (Table I lists sliding hash as not requiring sorted
// inputs).
func slidingSymbolicCol[T matrix.Number](w *workerStateOf[T], as []*matrix.CSCOf[T], j, inz, threads int, cacheBytes int64, maxEntries int, sortedIn bool) int {
	if inz == 0 {
		return 0
	}
	// Tables are sized exactly (no high-water band): the whole point
	// of the partitioning is that each table fits the cache share (or
	// the explicit entry cap), and a band-reused oversized window
	// would silently void that.
	parts := hashtab.SlidingParts(inz, BytesPerSymbolicEntry, threads, cacheBytes, maxEntries)
	if parts == 1 {
		tab := w.symTableSized(inz)
		for _, a := range as {
			for _, r := range a.ColRows(j) {
				tab.Insert(r)
			}
		}
		return tab.Len()
	}
	m := as[0].Rows
	nz := 0
	for part := 0; part < parts; part++ {
		r1 := matrix.Index(part * m / parts)
		r2 := matrix.Index((part + 1) * m / parts)
		partInz := 0
		for _, a := range as {
			partInz += colRangeNNZ(a, j, r1, r2, sortedIn)
		}
		if partInz == 0 {
			continue
		}
		tab := w.symTableSized(partInz)
		for _, a := range as {
			forEachRowInRange(a, j, r1, r2, sortedIn, func(r matrix.Index) {
				tab.Insert(r)
			})
		}
		nz += tab.Len()
	}
	return nz
}

// colRangeNNZ counts entries of column j with row in [r1, r2), by
// binary search on sorted columns or a scan otherwise.
func colRangeNNZ[T matrix.Number](a *matrix.CSCOf[T], j int, r1, r2 matrix.Index, sortedIn bool) int {
	if sortedIn {
		return a.ColRangeNNZ(j, r1, r2)
	}
	n := 0
	for _, r := range a.ColRows(j) {
		if r >= r1 && r < r2 {
			n++
		}
	}
	return n
}

// forEachRowInRange visits the row indices of column j in [r1, r2) —
// the symbolic (value-free) half of the range visitors.
func forEachRowInRange[T matrix.Number](a *matrix.CSCOf[T], j int, r1, r2 matrix.Index, sortedIn bool, visit func(matrix.Index)) {
	if sortedIn {
		rows, _ := a.ColRange(j, r1, r2)
		for p := range rows {
			visit(rows[p])
		}
		return
	}
	for _, r := range a.ColRows(j) {
		if r >= r1 && r < r2 {
			visit(r)
		}
	}
}

// forEachInRange visits the entries of column j with row in [r1, r2).
func forEachInRange[T matrix.Number](a *matrix.CSCOf[T], j int, r1, r2 matrix.Index, sortedIn bool, visit func(matrix.Index, T)) {
	if sortedIn {
		rows, vals := a.ColRange(j, r1, r2)
		for p := range rows {
			visit(rows[p], vals[p])
		}
		return
	}
	rows, vals := a.ColRows(j), a.ColVals(j)
	for p := range rows {
		if rows[p] >= r1 && rows[p] < r2 {
			visit(rows[p], vals[p])
		}
	}
}

// --- Numeric kernels: accumulate and emit B(:,j) ---
//
// Every numeric kernel takes the call's resolved monoid handle. A nil
// *monoidStateOf selects the specialized T-Plus path — the exact
// inlined "+=" loops this library always had, reached through the
// worker's kit — and a non-nil handle selects the generic combine
// path. The branch happens once per column (or once per call), never
// per element, so the default Plus configuration pays nothing for the
// generality.

// accumInputsInto accumulates column j of every input into tab
// (lines 5-12 of Algorithm 5) and returns it.
func accumInputsInto[T matrix.Number](kit *numKit[T], tab *hashtab.TableOf[T], as []*matrix.CSCOf[T], j int, coeffs []T, mon *monoidStateOf[T]) *hashtab.TableOf[T] {
	if mon == nil {
		kit.hashAccum(tab, as, j, coeffs)
		return tab
	}
	// Generic path: coeffs are Plus-only (validation enforces it), so
	// the input map replaces the coefficient multiply. mapFor is nil
	// for unmapped matrices; branching out here keeps the no-map loop
	// free of a per-element no-op call.
	combine := mon.combine
	for i, a := range as {
		mi := mon.mapFor(i)
		rows, vals := a.ColRows(j), a.ColVals(j)
		if mi == nil {
			for p := range rows {
				tab.AddWith(rows[p], vals[p], combine)
			}
		} else {
			for p := range rows {
				tab.AddWith(rows[p], mi(vals[p]), combine)
			}
		}
	}
	return tab
}

// hashAccumCol accumulates column j of every input into the worker's
// hash table, sized for inz keys (the column's input nnz, which
// bounds its output nnz), and returns the table.
func hashAccumCol[T matrix.Number](w *workerStateOf[T], as []*matrix.CSCOf[T], j, inz int, coeffs []T, mon *monoidStateOf[T]) *hashtab.TableOf[T] {
	return accumInputsInto(w.kit, w.hashTable(inz), as, j, coeffs, mon)
}

// spaAccumCol accumulates column j of every input into the worker's
// SPA (lines 5-7 of Algorithm 4) and returns it; callers emit and
// Clear it.
func spaAccumCol[T matrix.Number](w *workerStateOf[T], as []*matrix.CSCOf[T], j int, coeffs []T, mon *monoidStateOf[T]) *spa.SPAOf[T] {
	acc := w.spa(as[0].Rows)
	if mon == nil {
		w.kit.spaAccum(acc, as, j, coeffs)
		return acc
	}
	combine := mon.combine
	for i, a := range as {
		mi := mon.mapFor(i)
		rows, vals := a.ColRows(j), a.ColVals(j)
		if mi == nil {
			for p := range rows {
				acc.AddWith(rows[p], vals[p], combine)
			}
		} else {
			for p := range rows {
				acc.AddWith(rows[p], mi(vals[p]), combine)
			}
		}
	}
	return acc
}

// emitHashTab appends the table's entries into the exactly-sized
// output extent, sorted by the worker's row sorter when asked.
// Three-index slices cap appends at the column's allocation: a
// symbolic/numeric disagreement reallocates instead of corrupting the
// next column, and the length check catches it.
func emitHashTab[T matrix.Number](w *workerStateOf[T], tab *hashtab.TableOf[T], outRows []matrix.Index, outVals []T, sorted bool) {
	need := len(outRows)
	r, v := tab.AppendEntries(outRows[:0:need], outVals[:0:need])
	if len(r) != need || &r[0] != &outRows[0] {
		panic("core: symbolic nnz disagrees with numeric nnz")
	}
	if sorted {
		w.sorter.sort(r, v)
	}
}

// slidingHashAddCol is Algorithm 8: hash addition over row ranges
// whose tables fit the per-thread cache share. Parts are emitted in
// ascending row ranges, so sorting within parts yields a fully sorted
// column.
func slidingHashAddCol[T matrix.Number](w *workerStateOf[T], as []*matrix.CSCOf[T], j int, outRows []matrix.Index, outVals []T, sorted bool, threads int, cacheBytes int64, maxEntries int, sortedIn bool, coeffs []T, mon *monoidStateOf[T]) {
	onz := len(outRows)
	if onz == 0 {
		return
	}
	// Like the symbolic half, tables are sized exactly — the in-cache
	// guarantee is the algorithm, so the high-water band is bypassed.
	// The per-entry byte cost is T's, so a float32 column needs half
	// the parts a float64 one does for the same cache share.
	parts := hashtab.SlidingParts(onz, entryBytesOf[T](), threads, cacheBytes, maxEntries)
	if parts == 1 {
		emitHashTab(w, accumInputsInto(w.kit, w.hashTableSized(onz), as, j, coeffs, mon), outRows, outVals, sorted)
		return
	}
	m := as[0].Rows
	out := 0
	for part := 0; part < parts; part++ {
		r1 := matrix.Index(part * m / parts)
		r2 := matrix.Index((part + 1) * m / parts)
		partInz := 0
		for _, a := range as {
			partInz += colRangeNNZ(a, j, r1, r2, sortedIn)
		}
		if partInz == 0 {
			continue
		}
		tab := w.hashTableSized(partInz)
		if mon == nil {
			w.kit.slidingAccum(tab, as, j, r1, r2, sortedIn, coeffs)
		} else {
			combine := mon.combine
			for i, a := range as {
				if mi := mon.mapFor(i); mi == nil {
					forEachInRange(a, j, r1, r2, sortedIn, func(r matrix.Index, v T) {
						tab.AddWith(r, v, combine)
					})
				} else {
					forEachInRange(a, j, r1, r2, sortedIn, func(r matrix.Index, v T) {
						tab.AddWith(r, mi(v), combine)
					})
				}
			}
		}
		r, v := tab.AppendEntries(outRows[out:out:onz], outVals[out:out:onz])
		if out+len(r) > onz || (len(r) > 0 && &r[0] != &outRows[out]) {
			panic("core: sliding symbolic nnz disagrees with numeric nnz")
		}
		if sorted {
			w.sorter.sort(r, v)
		}
		out += len(r)
	}
	if out != onz {
		panic("core: sliding symbolic nnz disagrees with numeric nnz")
	}
}

// heapMergeCol is the body of Algorithm 3: k-way merge through the
// min-heap, appending to the output on first sight of a row and
// accumulating otherwise. Output is produced in ascending row order.
// outRows/outVals may be larger than the result (the single-pass
// engine passes the Σ_i nnz(A_i(:,j)) upper bound); the number of
// entries written is returned.
func heapMergeCol[T matrix.Number](w *workerStateOf[T], as []*matrix.CSCOf[T], j int, outRows []matrix.Index, outVals []T, coeffs []T, mon *monoidStateOf[T]) int {
	if mon != nil {
		return heapMergeColM(w, as, j, outRows, outVals, mon)
	}
	return w.kit.heapMerge(w, as, j, outRows, outVals, coeffs)
}

// heapMergePlus is heapMergeCol's Plus fast path, the HeapSpKAdd
// inner loop with "+=" inlined per arithmetic instantiation.
//
//spkadd:noalloc per-column heap merge, the HeapSpKAdd inner loop
func heapMergePlus[T matrix.Arith](w *workerStateOf[T], as []*matrix.CSCOf[T], j int, outRows []matrix.Index, outVals, coeffs []T) int {
	h := w.kheap(len(as))
	pos := w.pos
	for i, a := range as {
		pos[i] = a.ColPtr[j]
		if pos[i] < a.ColPtr[j+1] {
			h.Push(kheap.TupleOf[T]{Row: a.RowIdx[pos[i]], Mat: int32(i), Val: a.Val[pos[i]] * coeff(coeffs, i)})
			pos[i]++
		}
	}
	out := -1
	for h.Len() > 0 {
		top := h.Min()
		if out >= 0 && outRows[out] == top.Row {
			outVals[out] += top.Val
		} else {
			out++
			outRows[out] = top.Row
			outVals[out] = top.Val
		}
		i := top.Mat
		a := as[i]
		if pos[i] < a.ColPtr[j+1] {
			h.ReplaceMin(kheap.TupleOf[T]{Row: a.RowIdx[pos[i]], Mat: i, Val: a.Val[pos[i]] * coeff(coeffs, int(i))})
			pos[i]++
		} else {
			h.Pop()
		}
	}
	return out + 1
}

// heapMergeColM is heapMergeCol's generic-monoid twin: tuples carry
// mapped values into the heap, and equal-row tuples fold through the
// monoid's combine in the deterministic Mat tie-break order, so the
// result bit pattern matches the other engines'. Coefficients never
// reach here (they are Plus-only).
//
//spkadd:noalloc per-column heap merge, generic-monoid variant
func heapMergeColM[T matrix.Number](w *workerStateOf[T], as []*matrix.CSCOf[T], j int, outRows []matrix.Index, outVals []T, mon *monoidStateOf[T]) int {
	h := w.kheap(len(as))
	pos := w.pos
	// The refill step pulls from whichever matrix the heap surfaces,
	// so the per-matrix map resolution of the other kernels becomes a
	// hoisted (mapIn, mapped) pair here: unmapped matrices pay one
	// predictable nil check per element, never an indirect no-op call.
	mapIn, mapped, combine := mon.mapIn, mon.mapped, mon.combine
	for i, a := range as {
		pos[i] = a.ColPtr[j]
		if pos[i] < a.ColPtr[j+1] {
			v := a.Val[pos[i]]
			if mapIn != nil && i >= mapped {
				v = mapIn(v)
			}
			h.Push(kheap.TupleOf[T]{Row: a.RowIdx[pos[i]], Mat: int32(i), Val: v})
			pos[i]++
		}
	}
	out := -1
	for h.Len() > 0 {
		top := h.Min()
		if out >= 0 && outRows[out] == top.Row {
			outVals[out] = combine(outVals[out], top.Val)
		} else {
			out++
			outRows[out] = top.Row
			outVals[out] = top.Val
		}
		i := top.Mat
		a := as[i]
		if pos[i] < a.ColPtr[j+1] {
			v := a.Val[pos[i]]
			if mapIn != nil && int(i) >= mapped {
				v = mapIn(v)
			}
			h.ReplaceMin(kheap.TupleOf[T]{Row: a.RowIdx[pos[i]], Mat: i, Val: v})
			pos[i]++
		} else {
			h.Pop()
		}
	}
	return out + 1
}
