// Package spkadd adds collections of sparse matrices: B = Σ_{i=1..k} A_i.
//
// It is a Go implementation of "Parallel Algorithms for Adding a
// Collection of Sparse Matrices" (Hussain, Abhishek, Buluç, Azad;
// IPDPSW 2022, arXiv:2112.10223). Adding two sparse matrices is a
// staple of every sparse library, but repeatedly using pairwise
// addition to reduce k matrices is not work-efficient: the paper — and
// this library — provide k-way algorithms based on heaps, sparse
// accumulators (SPA), hash tables and cache-sized sliding hash tables
// that meet the lower bounds on both computation and memory traffic,
// plus the classic 2-way incremental and 2-way tree baselines.
//
// # Quick start
//
//	a := spkadd.RandomER(1<<20, 1024, 64, 1)   // rows, cols, nnz/col, seed
//	b := spkadd.RandomER(1<<20, 1024, 64, 2)
//	sum, err := spkadd.Add([]*spkadd.Matrix{a, b}, spkadd.Options{})
//
// The zero Options value selects the Auto algorithm (sliding hash when
// the estimated table footprint passes the last-level cache, SPA when
// its per-worker dense accumulator is small and the columns are dense
// enough, hash otherwise), GOMAXPROCS worker goroutines, and unsorted
// output columns.
//
// # Choosing an algorithm
//
// Hash is the best performer across matrix shapes and sparsity
// patterns; SlidingHash overtakes it when k·d (input nonzeros per
// column) is large enough that per-thread hash tables spill out of the
// last-level cache. Heap uses the least memory and needs sorted
// inputs; SPA beats Hash while its O(rows) accumulator per worker
// stays in cache and the columns are dense enough, where Auto picks
// it.
// TwoWayIncremental and TwoWayTree exist as baselines and for adding
// very few matrices. See DESIGN.md and EXPERIMENTS.md for measured
// comparisons.
//
// # Execution engines
//
// Each k-way algorithm has exactly one engine. Hash, SPA and Heap run
// the single-pass engine, which reads each input exactly once — the
// paper's O(knd) memory-traffic lower bound: its staging buffer is
// allocated from the per-column sum of input nonzeros, filled in one
// pass, and compacted in parallel. Extra memory ≈ input size.
// SlidingHash keeps the paper's two-phase formulation, which reads
// every input twice: a symbolic phase sizes each output column, then
// a numeric phase fills it. Its per-part symbolic counts are what
// keep each table in cache, and its unpartitioned case is the paper's
// two-phase hash (Algorithms 5-6). The 2-way baselines keep their
// pairwise drivers. OpStats.EngineUsed reports which engine a call
// ran; with SortedOutput, Hash, SPA and Heap are bit-identical to
// SlidingHash. DESIGN.md §2 covers the engines and the Auto rule.
//
// # Combine monoids
//
// Every algorithm is really a k-way merge-and-combine: it visits the
// union of the inputs' nonzero positions and folds colliding entries
// with a binary operation. Options.Monoid makes that operation
// pluggable (GraphBLAS's eWiseAdd): nil means Plus — float64 "+",
// the paper's operation, served by specialized inlined kernels — and
// the built-ins Min, Max, Any (structural union: present anywhere →
// 1) and Count (occurrence frequency) run the same engines through a
// generic combine path, as can any user-defined commutative monoid:
//
//	union, _ := spkadd.Add(snapshots, spkadd.Options{Monoid: spkadd.Any})
//	freq, _ := spkadd.Add(snapshots, spkadd.Options{Monoid: spkadd.Count})
//	low, _ := spkadd.Add(forecasts, spkadd.Options{Monoid: spkadd.Min})
//
// Results are identical across the k-way algorithms (bit-for-bit
// with SortedOutput) for every monoid, exactly like Plus. Non-Plus
// monoids run on the k-way algorithms only (the 2-way baselines
// hardwire pairwise "+") and reject AddScaled coefficients with
// ErrCoeffsRequirePlus — scaling distributes over "+" but not over
// min, max or counting. Monoids with an input map (Any, Count)
// compose with the streaming Accumulator and Pool, which fold their
// running sum back in unmapped; with a bare Adder the sum-reuse
// pattern below would re-map the sum, so prefer an Accumulator for
// streaming Count. See DESIGN.md §8 and examples/overlay.
//
// # Value types
//
// The value axis is a type parameter. Matrix, Options, Monoid, Adder,
// Accumulator and Pool are the float64 instantiations — the paper's
// element type, and the default everything in this documentation
// assumes — of generic forms suffixed Of: MatrixOf[T], OptionsOf[T],
// AdderOf[T], and so on, over Number (float32, float64, int32, int64,
// bool). Every float64 call site reads exactly as it did before the
// axis became generic; choosing another element type is a type
// argument, not a different API:
//
//	as := []*spkadd.MatrixOf[float32]{...}
//	sum, _ := spkadd.Add(as, spkadd.OptionsOf[float32]{})
//
// float32 (and int32) shrink a stored entry from 12 to 8 bytes, which
// is a direct win wherever value traffic is the bottleneck — large-d
// additions streaming from memory, accumulators straddling a cache
// level (`spkadd-bench -exp dtype` measures the A/B; the committed
// baseline tracks float32 cells). int32/int64 count exactly where
// floats would round. bool is the structural element type for
// reachability and overlay workloads: it has no "+", so boolean
// additions must name a monoid explicitly (AnyFor[bool] is the
// natural one) and AddScaled does not apply. The Plus fast path, the
// zero-allocation Adder steady state and algorithm-identical results
// hold per instantiation — see TestDtypeParity,
// BenchmarkAdderReuseDtype and examples/reach. Mixing element types
// in one addition is not supported; convert inputs first. DESIGN.md
// §14 covers how the type parameter layers through the kernels.
//
// # Repeated additions
//
// Add draws its scratch structures from an internal pool, so one-shot
// calls already amortize hash tables, accumulators and staging
// buffers across calls. Callers that add repeatedly — streaming graph
// windows, per-stage SUMMA reductions, gradient averaging loops —
// should hold an Adder, which additionally recycles the output
// storage: in steady state a call allocates nothing. The returned
// matrix is owned by the Adder and valid until its next call (Clone
// it to keep it longer); the previous result may be an input to the
// next call, so the streaming pattern
//
//	ad := spkadd.NewAdder()
//	sum, _ = ad.Add([]*spkadd.Matrix{sum, delta}, opt)
//
// is supported directly. An Adder is single-goroutine; concurrent use
// fails fast with ErrAdderInUse. See DESIGN.md §3 and
// `spkadd-bench -exp reuse` for the measured effect.
//
// # Streaming and concurrent accumulation
//
// When matrices arrive over time or exceed memory, an Accumulator
// buffers pushes and reduces them k-way whenever the running sum plus
// the buffer would exceed a byte budget (the batching strategy of the
// paper's §V). An Accumulator is single-goroutine like an Adder
// (concurrent use fails fast with ErrAccumulatorInUse); when many
// goroutines stream deltas into one sum — ingest firehoses, fan-in
// aggregation — use a Pool, which shards the column space: producers
// enqueue zero-copy column slices under per-shard locks and per-shard
// reducer goroutines fold them into disjoint running sums that Sum
// stitches together. See DESIGN.md §5-6, examples/firehose and
// `spkadd-bench -exp pool`.
//
// # Threads and scheduling
//
// Options.Threads sets the worker count of one call (<1 means
// GOMAXPROCS). Every parallel phase spreads output columns over those
// workers the way the paper does — contiguous ranges weighted by
// per-column nonzeros — and a worker that runs dry steals the back
// half of the most-loaded peer's remaining range, which fixes skewed
// inputs' tail latency. Workers are not spawned per call: every
// Adder, Accumulator and Pool shard keeps a resident executor in its
// workspace — persistent goroutines parked between parallel phases
// plus reusable partitioning scratch — so a warmed Adder allocates
// nothing even for its scheduling. Threads: 1 calls bypass the
// executor entirely. Results never depend on the thread count.
// OpStats reports per-phase load balance (LoadImbalance, Steals). See
// DESIGN.md §9.
//
// # Errors, cancellation and failure containment
//
// Validation failures are sentinel errors matched with errors.Is:
// ErrNoInputs (empty collection), ErrDimMismatch (inputs disagree on
// shape), ErrUnsortedInput (Heap or the 2-way baselines fed unsorted
// columns; an Accumulator or Pool under them refuses such a matrix at
// Push), ErrCoeffsRequirePlus (AddScaled with a non-Plus monoid),
// ErrMonoidUnsupported (a non-Plus monoid on a 2-way baseline; an
// Accumulator or Pool under options no reduction can run refuses every
// Push with it), and
// the misuse sentinels ErrAdderInUse, ErrAccumulatorInUse and
// ErrPoolClosed (a push after Close, or a second Close).
//
// Long-running operations take contexts: AddContext, the Adder's and
// Accumulator's context variants, and the Pool's PushContext
// (backpressure waits), SumContext (drain barriers) and CloseContext
// (shutdown). A context that ends mid-operation surfaces as
// ErrCanceled or ErrDeadline, each also matching the standard
// context.Canceled / context.DeadlineExceeded. Cancellation never
// corrupts state: a canceled reduction leaves the running sum and all
// pending inputs as they were, and the next uncanceled call picks the
// work back up.
//
// Panics inside the streaming stack — a kernel, an executor worker, a
// shard reducer — are recovered at the nearest fault boundary and
// returned as a *PanicError (panic value plus stack) instead of
// killing the process. Because the interrupted scratch state is
// indeterminate, the owning Adder or Accumulator is poisoned: its
// workspace is quarantined and every later call reports the same
// sticky error; build a fresh one to continue. A Pool contains the
// damage to the shard that hit it: ordinary reduction errors retry up
// to PoolOptions.MaxRetries with jittered exponential backoff before
// marking the shard degraded — a recoverable state in which the shard
// drops the failed batch (recorded in ShardHealth.Dropped) but keeps
// reducing, returning to HealthOK on its next success — while panics
// poison the shard permanently, and in either case the remaining
// shards keep serving. Sum then returns every shard's last good
// columns together with one *ShardError per currently-failed shard
// (naming its column range), and Pool.Health reports each shard's
// state — HealthOK, HealthDegraded or HealthPoisoned — plus its queue
// and dropped-piece gauges. OpStats counts PanicsRecovered, Retries
// and the health transitions. See DESIGN.md §11 for the full failure
// model.
//
// # Serving
//
// The library's serving shape ships as cmd/spkadd-serve: an HTTP
// daemon that ingests binary COO delta frames into per-tenant Pools
// and serves snapshot sums, mapping the failure model outward — Pool
// backpressure becomes 429 + Retry-After admission control, degraded
// tenants keep serving behind Warning headers, poisoned tenants flip
// /readyz and refuse ingest, and SIGTERM drains every tenant under a
// deadline, reporting any abandoned work in its exit code. See
// DESIGN.md §12 and examples/firehose -serve for an end-to-end
// client.
//
// Matrices are in compressed sparse column (CSC) form with 32-bit
// indices and generic values (float64 by default — see "Value types").
// Inputs may have unsorted columns for the SPA, Hash and SlidingHash
// algorithms. Every algorithm applies unchanged to compressed sparse
// row (CSR) data (§II-A of the paper): a CSR matrix's RowPtr, ColIdx
// and Val arrays are the CSC arrays of its transpose, so pass them as
// a Matrix's ColPtr, RowIdx and Val with Rows and Cols swapped, and
// read the sum back the same way: Σ Aᵢᵀ = (Σ Aᵢ)ᵀ, and no input is
// copied.
package spkadd
