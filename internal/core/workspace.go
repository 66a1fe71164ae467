package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

// Workspace owns every scratch structure a k-way SpKAdd call (or a
// Mul, which runs on the same single-pass engine) needs —
// per-worker hash tables, SPAs and heaps, the single-pass engine's
// staging buffer, the per-column nnz and weight arrays, and
// (optionally) a recyclable output CSC — so that repeated calls
// allocate nothing in steady state. All buffers are grow-only: a call
// with a larger shape enlarges them, a call with a smaller shape
// reuses a prefix.
//
// The paper's O(knd)-work algorithms (§III-A) assume the thread-
// private scratch structures are resident; without a workspace every
// Add rebuilt them, and for repeated additions over small and medium
// matrices (streaming graph updates, SUMMA's per-stage reductions)
// allocation and GC pressure dominated the actual merge work.
//
// A Workspace is not safe for concurrent use: it backs the public
// Adder (which detects concurrent misuse) and the package-level Add,
// where a sync.Pool hands each concurrent call its own workspace.
//
// The phase bodies handed to the scheduler are allocated once per
// workspace (method values bound at construction) and read their
// per-call parameters from workspace fields; a fresh closure per call
// would put one funcval on the heap per phase and break the
// zero-allocation steady state.
type WorkspaceOf[T matrix.Number] struct {
	// recycleOut selects AddInto-style destination reuse: the output
	// CSC is built in one of two workspace-owned buffer sets that
	// alternate between calls (see allocOutput). Enabled for the
	// public Adder and the Accumulator; disabled for pooled one-shot
	// calls, whose caller owns the result indefinitely.
	recycleOut bool

	// Scratch reused across calls.
	workers []workerStateOf[T]
	weights []int64 // per-column Σ_i nnz(A_i(:,j)), or Mul's flops
	counts  []int64 // per-column output nnz
	ubPtr   []int64 // single-pass engine's staging column pointers
	stRows  []matrix.Index
	stVals  []T

	outs [2]cscBufOf[T]
	cur  int

	// kit binds the instantiation's Plus fast paths once per
	// workspace (nil for bool; see kitFor).
	kit *numKit[T]

	// ownEx is the workspace's executor, the only one its calls run
	// on: a pool of parked worker goroutines plus the partitioning
	// scratch every parallel phase needs, created on the first
	// multi-threaded region and then recycled like all other scratch
	// — so a workspace-backed Adder, Accumulator or Pool shard pays
	// goroutine creation and partitioning allocation once, not per
	// phase per call. It grows to whatever Threads each call requests.
	ownEx *sched.Executor

	// Per-call state read by the persistent phase bodies.
	as       []*matrix.CSCOf[T]
	coeffs   []T
	alg      Algorithm
	opt      OptionsOf[T]
	t        int
	cache    int64
	sortedIn bool
	ctx      context.Context // nil for context-free calls
	b        *matrix.CSCOf[T]
	// mulA, mulB are Mul's operands; a product has no input list.
	mulA, mulB *matrix.CSCOf[T]
	// mon is the call's resolved combine monoid, held by value so
	// non-Plus calls allocate nothing; monP is the kernel-facing
	// handle — nil on the Plus fast path, &mon on the generic path.
	mon  monoidStateOf[T]
	monP *monoidStateOf[T]

	symFn, numFn, ubFn, compactFn, mulFn func(w, lo, hi int)
}

// Workspace is the float64 workspace, the paper's element type.
type Workspace = WorkspaceOf[matrix.Value]

// cscBufOf is one recyclable output destination: the CSC header and
// its grow-only backing arrays.
type cscBufOf[T matrix.Number] struct {
	m      matrix.CSCOf[T]
	colPtr []int64
	rowIdx []matrix.Index
	val    []T
}

// NewWorkspace returns an empty workspace. With recycleOutput the
// output matrix is built in workspace-owned storage that is reused on
// later calls (the returned matrix stays valid only until the next
// call); without it every call allocates a fresh, caller-owned output
// while still reusing all scratch.
func NewWorkspace(recycleOutput bool) *Workspace {
	return NewWorkspaceOf[matrix.Value](recycleOutput)
}

// NewWorkspaceOf is NewWorkspace for any supported element type.
func NewWorkspaceOf[T matrix.Number](recycleOutput bool) *WorkspaceOf[T] {
	ws := &WorkspaceOf[T]{recycleOut: recycleOutput, kit: kitFor[T]()}
	ws.symFn = ws.symBody
	ws.numFn = ws.numBody
	ws.ubFn = ws.ubBody
	ws.compactFn = ws.compactBody
	ws.mulFn = ws.mulBody
	return ws
}

// The wsPools back the package-level Add/AddTimed/AddScaled: one-shot
// callers get scratch amortization across calls for free, while the
// output stays caller-owned (no recycling). One pool per supported
// element type — a pool must hand back a workspace of the caller's
// instantiation, and a sync.Pool cannot be generic.
var (
	wsPoolF64 = sync.Pool{New: func() any { return NewWorkspaceOf[float64](false) }}
	wsPoolF32 = sync.Pool{New: func() any { return NewWorkspaceOf[float32](false) }}
	wsPoolI32 = sync.Pool{New: func() any { return NewWorkspaceOf[int32](false) }}
	wsPoolI64 = sync.Pool{New: func() any { return NewWorkspaceOf[int64](false) }}
	wsPoolB   = sync.Pool{New: func() any { return NewWorkspaceOf[bool](false) }}
)

// wsPoolFor returns T's package workspace pool. The type switch runs
// once per package-level call, far off the hot path.
func wsPoolFor[T matrix.Number]() *sync.Pool {
	var z T
	switch any(z).(type) {
	case float64:
		return &wsPoolF64
	case float32:
		return &wsPoolF32
	case int32:
		return &wsPoolI32
	case int64:
		return &wsPoolI64
	default:
		return &wsPoolB
	}
}

// AddTimed is the workspace-bound form of the package-level AddTimed:
// identical semantics and output, but all scratch state (and, for a
// recycling workspace, the output storage) comes from ws.
func (ws *WorkspaceOf[T]) AddTimed(as []*matrix.CSCOf[T], opt OptionsOf[T]) (*matrix.CSCOf[T], PhaseTimings, error) {
	return ws.addTimedPremapped(nil, as, opt, 0)
}

// AddContext is Add with cooperative cancellation: the engines check
// ctx at phase boundaries (before the symbolic pass, between passes,
// after the numeric pass) and abandon the call with an error wrapping
// ErrCanceled or ErrDeadline. Cancellation is clean — no partial
// result is installed and the workspace's scratch stays reusable.
func (ws *WorkspaceOf[T]) AddContext(ctx context.Context, as []*matrix.CSCOf[T], opt OptionsOf[T]) (*matrix.CSCOf[T], error) {
	b, _, err := ws.addTimedPremapped(ctx, as, opt, 0)
	return b, err
}

// addTimedPremapped is AddTimed with a premapped running-sum prefix
// (see monoidState.mapped): the streaming accumulators fold their
// previous sum — already in the monoid's result domain — back in as
// the first input, and it must not pass through MapInput again.
func (ws *WorkspaceOf[T]) addTimedPremapped(ctx context.Context, as []*matrix.CSCOf[T], opt OptionsOf[T], premapped int) (*matrix.CSCOf[T], PhaseTimings, error) {
	var pt PhaseTimings
	p, err := opt.validate(as, nil, premapped)
	if err != nil {
		return nil, pt, err
	}
	if p.copyOne {
		return ws.copyOne(as[0], opt), pt, nil
	}
	// The recycling output buffers ping-pong per successful call; a
	// failed call must not consume a flip, or retrying it would write
	// into the buffer still holding the caller's running sum while
	// reading it.
	cur := ws.cur
	b, pt, err := ws.addDispatch(ctx, as, p, opt, nil)
	if err != nil {
		ws.cur = cur
		return nil, pt, err
	}
	return b, pt, nil
}

// addPremapped is addTimedPremapped without the phase split, the
// reduction entry point of Accumulator and Pool.
func (ws *WorkspaceOf[T]) addPremapped(ctx context.Context, as []*matrix.CSCOf[T], opt OptionsOf[T], premapped int) (*matrix.CSCOf[T], error) {
	b, _, err := ws.addTimedPremapped(ctx, as, opt, premapped)
	return b, err
}

// Add is AddTimed without the phase split.
func (ws *WorkspaceOf[T]) Add(as []*matrix.CSCOf[T], opt OptionsOf[T]) (*matrix.CSCOf[T], error) {
	b, _, err := ws.AddTimed(as, opt)
	return b, err
}

// AddScaled is the workspace-bound form of the package-level
// AddScaled.
func (ws *WorkspaceOf[T]) AddScaled(as []*matrix.CSCOf[T], coeffs []T, opt OptionsOf[T]) (*matrix.CSCOf[T], error) {
	if len(coeffs) != len(as) {
		return nil, fmt.Errorf("%w: %d coefficients for %d matrices", ErrDimMismatch, len(coeffs), len(as))
	}
	p, err := opt.validate(as, coeffs, 0)
	if err != nil {
		return nil, err
	}
	cur := ws.cur
	b, _, err := ws.addDispatch(nil, as, p, opt, coeffs)
	if err != nil {
		ws.cur = cur
		return nil, err
	}
	return b, nil
}

// addDispatch routes a validated call: 2-way baselines keep their
// native drivers (their intermediate matrices cannot be recycled), the
// k-way algorithms run on the workspace engines.
func (ws *WorkspaceOf[T]) addDispatch(ctx context.Context, as []*matrix.CSCOf[T], p planOf[T], opt OptionsOf[T], coeffs []T) (*matrix.CSCOf[T], PhaseTimings, error) {
	var pt PhaseTimings
	switch p.alg {
	case TwoWayIncremental, TwoWayTree, MapIncremental, MapTree:
		// The 2-way baselines' native pairwise drivers read inputs like
		// the two-pass engine, and that is what the stats report. They
		// still run their parallel passes on the workspace's executor.
		if opt.Stats != nil {
			opt.Stats.RecordEngine(PhasesTwoPass)
		}
		ex := ws.executorFor(sched.Threads(opt.Threads))
		start := time.Now()
		var b *matrix.CSCOf[T]
		var err error
		// The pair adders come through the kit: they are Plus-only
		// (validate rejects generic monoids here), so their inner
		// merges are the Arith-constrained "+=" loops. A bool call
		// never reaches this arm for the same reason.
		switch p.alg {
		case TwoWayIncremental:
			b, err = addIncremental(as, opt, ex, ws.kit.pairMerge)
		case TwoWayTree:
			b, err = addTree(as, opt, ex, ws.kit.pairMerge)
		case MapIncremental:
			b, err = addIncremental(as, opt, ex, ws.kit.pairMap)
		case MapTree:
			b, err = addTree(as, opt, ex, ws.kit.pairMap)
		}
		pt.Numeric = time.Since(start)
		if err != nil {
			return nil, pt, err
		}
		return b, pt, nil
	default:
		ws.begin(as, p, opt, coeffs)
		ws.ctx = ctx
		// Each k-way algorithm has one engine: SlidingHash's per-part
		// symbolic counts need the two-pass driver, and Hash, SPA and
		// Heap run single-pass.
		engine := PhasesUpperBound
		if p.alg == SlidingHash {
			engine = PhasesTwoPass
		}
		if opt.Stats != nil {
			opt.Stats.RecordEngine(engine)
		}
		var b *matrix.CSCOf[T]
		var err error
		if engine == PhasesTwoPass {
			b, pt, err = ws.addKWay()
		} else {
			b, pt, err = ws.addUpperBound()
		}
		ws.end()
		if err != nil {
			return nil, pt, err
		}
		return b, pt, nil
	}
}

// ctxCheck is the engines' phase-boundary cancellation probe: nil for
// context-free calls and live contexts, the typed cancellation error
// otherwise. Checking only between phases keeps the kernels themselves
// untouched — a canceled call finishes the pass in flight (bounded
// work) and aborts before the next one.
func (ws *WorkspaceOf[T]) ctxCheck() error {
	if ws.ctx == nil || ws.ctx.Err() == nil {
		return nil
	}
	return ctxErr(ws.ctx)
}

// begin records the per-call parameters the persistent phase bodies
// read, and sizes the per-worker state slice.
func (ws *WorkspaceOf[T]) begin(as []*matrix.CSCOf[T], p planOf[T], opt OptionsOf[T], coeffs []T) {
	ws.as, ws.coeffs, ws.alg, ws.opt, ws.sortedIn = as, coeffs, p.alg, opt, p.sortedIn
	ws.mon = p.mon
	ws.monP = nil
	if p.generic {
		ws.monP = &ws.mon
	}
	ws.t = sched.Threads(opt.Threads)
	ws.cache = opt.cacheBytes()
	if ws.t > len(ws.workers) {
		workers := make([]workerStateOf[T], ws.t)
		copy(workers, ws.workers)
		for i := len(ws.workers); i < ws.t; i++ {
			workers[i].kit = ws.kit
		}
		ws.workers = workers
	}
}

// executorFor returns the workspace's executor for a region of t
// workers, creating it on first need. A single-threaded call never
// touches an executor — runColsOn runs its regions inline — so a
// workspace that only ever serves Threads==1 calls parks no
// goroutines at all.
func (ws *WorkspaceOf[T]) executorFor(t int) *sched.Executor {
	if t > 1 && ws.ownEx == nil {
		ws.ownEx = sched.NewExecutor()
	}
	return ws.ownEx
}

// Close releases the workspace executor's parked workers now instead
// of at GC time. Owners call it when the workspace is retired (a Pool
// shard's reducer exiting, a poisoned workspace quarantined, a
// sequential SUMMA run finishing); a later multi-threaded call would
// create a fresh executor.
func (ws *WorkspaceOf[T]) Close() {
	if ws.ownEx != nil {
		ws.ownEx.Close()
		ws.ownEx = nil
	}
}

// Quarantine retires a workspace whose call panicked: its scratch is
// mid-kernel garbage, so its owner drops it instead of reusing it.
// Quarantine closes it, so its executor's parked workers exit now
// rather than at GC time, and counts the recovered panic in st (nil:
// no stats). Every owner drops a panicked workspace through it: the
// pooled one-shot calls, the Adder, the Accumulator and Pool shards.
func (ws *WorkspaceOf[T]) Quarantine(st *OpStats) {
	ws.Close()
	if st != nil {
		st.PanicsRecovered.Add(1)
	}
}

// end drops the references to caller data so a pooled or idle
// workspace does not pin input matrices (scratch stays resident —
// that is the point). The per-call Options are dropped whole, Stats
// with them; only ownEx stays resident, workers parked, for the next
// call.
func (ws *WorkspaceOf[T]) end() {
	ws.as, ws.coeffs, ws.b, ws.ctx = nil, nil, nil, nil
	ws.mulA, ws.mulB = nil, nil
	ws.opt = OptionsOf[T]{}
	ws.mon, ws.monP = monoidStateOf[T]{}, nil
}

// runCols runs columns [0, len(weights)) on the workspace's executor
// as a region weighted by weights, recording its load statistics into
// Options.Stats.
func (ws *WorkspaceOf[T]) runCols(weights []int64, body func(worker, lo, hi int)) error {
	return runColsOn(ws.executorFor(ws.t), ws.t, weights, ws.opt.Stats, body)
}

// reserveWorkers grows every worker's thread-private structures and
// reserves its hash-table or SPA index storage (and, for a sorted
// numeric phase, its row sorter) for the phase's largest per-column
// bound in an output of rows rows, whenever the call runs more than
// one worker. A weighted region steals, so the same call may hand any
// column to any worker on different runs; without the reservation a
// reused workspace's steady-state call could still allocate when the
// largest column lands on a worker that had not seen it before,
// breaking the Adder's zero-allocation contract. Reservation only
// grows backing storage; the per-column probe-window sizing (the
// cache behaviour the hash algorithms are built around) is untouched.
func (ws *WorkspaceOf[T]) reserveWorkers(bound []int64, rows int, sym bool) {
	if ws.t <= 1 {
		return
	}
	maxW := maxWeight(bound)
	for w := 0; w < ws.reserveCount(len(bound)); w++ {
		s := ws.worker(w)
		switch ws.alg {
		case Hash, SlidingHash:
			if maxW == 0 {
				continue
			}
			s.hashTableSized(int(maxW))
		case SPA:
			s.spa(rows).Reserve(min(int(maxW), rows))
		case Heap:
			s.kheap(len(ws.as))
		}
		// The heap merge emits in row order; every other sorted emit
		// calls the row sorter.
		if ws.opt.SortedOutput && !sym && ws.alg != Heap {
			s.sorter.reserve(int(maxW), rows)
		}
	}
}

// reserveCount is how many distinct worker ids a phase over n columns
// can actually run: the call's thread count, capped by the column
// count.
func (ws *WorkspaceOf[T]) reserveCount(n int) int {
	return min(ws.t, n)
}

func maxWeight(bound []int64) int64 {
	var m int64
	for _, v := range bound {
		if v > m {
			m = v
		}
	}
	return m
}

// worker returns worker w's private state. Worker ids handed out by
// sched are distinct among concurrently running goroutines, so no two
// of them share a state.
func (ws *WorkspaceOf[T]) worker(w int) *workerStateOf[T] {
	return &ws.workers[w]
}

// colScratch sizes and zeroes the per-column weight and count arrays.
func (ws *WorkspaceOf[T]) colScratch(n int) {
	ws.weights = grow(ws.weights, n)
	ws.counts = grow(ws.counts, n)
	clear(ws.weights)
	clear(ws.counts)
}

// fillInputWeights computes Σ_i nnz(A_i(:,j)) for every column into
// ws.weights (zeroed by colScratch) — the symbolic load-balancing
// weights and the staging upper bounds of the single-pass engine. It
// is one sequential pass at every width, as Mul sums its flop
// weights: the per-column work is one pointer subtraction per input.
func (ws *WorkspaceOf[T]) fillInputWeights() {
	for _, a := range ws.as {
		ptr := a.ColPtr
		for j := range ws.weights {
			ws.weights[j] += ptr[j+1] - ptr[j]
		}
	}
}

// allocOutput returns the output CSC for the given per-column counts.
// Without recycling it is freshly allocated and caller-owned. With
// recycling the workspace alternates between two resident buffer sets
// (ping-pong), so the matrix returned by the previous call may safely
// appear among the next call's inputs — the streaming pattern
// sum = ws.Add([sum, delta]) never reads a buffer while writing it.
func (ws *WorkspaceOf[T]) allocOutput(rows, cols int, counts []int64) *matrix.CSCOf[T] {
	if !ws.recycleOut {
		return allocCSC[T](rows, cols, counts)
	}
	ws.cur ^= 1
	o := &ws.outs[ws.cur]
	o.colPtr = grow(o.colPtr, cols+1)
	o.colPtr[0] = 0
	for j := 0; j < cols; j++ {
		o.colPtr[j+1] = o.colPtr[j] + counts[j]
	}
	nnz := int(o.colPtr[cols])
	if cap(o.rowIdx) < nnz || cap(o.val) < nnz {
		o.rowIdx = make([]matrix.Index, nnz)
		o.val = make([]T, nnz)
	}
	o.rowIdx, o.val = o.rowIdx[:nnz], o.val[:nnz]
	o.m = matrix.CSCOf[T]{Rows: rows, Cols: cols, ColPtr: o.colPtr[:cols+1], RowIdx: o.rowIdx, Val: o.val}
	return &o.m
}

// copyOne handles the k=1 case: the sum of one matrix is a copy. A
// recycling workspace copies into its resident destination to keep the
// ownership contract (result valid until the next call) uniform.
func (ws *WorkspaceOf[T]) copyOne(a *matrix.CSCOf[T], opt OptionsOf[T]) *matrix.CSCOf[T] {
	if !ws.recycleOut {
		out := a.Clone()
		if opt.SortedOutput && !out.IsColumnSorted() {
			out.SortColumns()
		}
		return out
	}
	ws.counts = grow(ws.counts, a.Cols)
	for j := 0; j < a.Cols; j++ {
		ws.counts[j] = int64(a.ColNNZ(j))
	}
	b := ws.allocOutput(a.Rows, a.Cols, ws.counts[:a.Cols])
	copy(b.RowIdx, a.RowIdx)
	copy(b.Val, a.Val)
	if opt.SortedOutput && !b.IsColumnSorted() {
		b.SortColumns()
	}
	return b
}

// grow returns s with length n, reusing its storage when large
// enough. Contents are unspecified; callers zero what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
