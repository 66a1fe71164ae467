package spkadd

import (
	"context"
	"io"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
	"spkadd/internal/ops"
	"spkadd/internal/summa"
)

// Core matrix types. Matrix is a sparse matrix in compressed sparse
// column (CSC) format; see its methods for construction, validation,
// conversion and block extraction.
type (
	// Matrix is a CSC sparse matrix.
	Matrix = matrix.CSC
	// COO is a coordinate-format matrix, convenient for assembly.
	COO = matrix.COO
	// Triple is one (row, col, value) entry.
	Triple = matrix.Triple
	// Index is the 32-bit row/column index type.
	Index = matrix.Index
	// Value is the float64 entry value type.
	Value = matrix.Value
)

// Number is the constraint satisfied by every supported element type:
// float32, float64, int32, int64 and bool. The float64 names above
// are instantiations of the Of-suffixed generic forms below; a
// narrower element type halves (float32/int32) or better (bool) the
// value-array bandwidth of every kernel — see doc.go "Value types"
// and `spkadd-bench -exp dtype`.
type Number = matrix.Number

// Generic forms of the core types. MatrixOf[float64] is exactly
// Matrix; existing float64 code never needs these names.
type (
	// MatrixOf is a CSC sparse matrix over any supported element type.
	MatrixOf[T Number] = matrix.CSCOf[T]
	// COOOf is a coordinate-format matrix over T.
	COOOf[T Number] = matrix.COOOf[T]
	// TripleOf is one (row, col, value) entry over T.
	TripleOf[T Number] = matrix.TripleOf[T]
	// OptionsOf configure an addition over T.
	OptionsOf[T Number] = core.OptionsOf[T]
	// MonoidOf is a combine monoid over T (see MonoidFor helpers).
	MonoidOf[T Number] = ops.MonoidOf[T]
	// AccumulatorOf is a streaming accumulator over T.
	AccumulatorOf[T Number] = core.AccumulatorOf[T]
	// PoolOf is a sharded streaming pool over T.
	PoolOf[T Number] = core.PoolOf[T]
	// PoolOptionsOf configure NewPoolOf.
	PoolOptionsOf[T Number] = core.PoolOptionsOf[T]
	// AdderOf is declared in adder.go.
)

// Algorithm selection, options and instrumentation for Add.
type (
	// Algorithm selects the SpKAdd implementation.
	Algorithm = core.Algorithm
	// Options configure Add; the zero value is ready to use.
	Options = core.Options
	// Phases names the execution engine an addition ran, as
	// OpStats.EngineUsed reports it: the single-pass upper-bound
	// engine of Hash, SPA and Heap, or the two-pass symbolic+numeric
	// driver of SlidingHash and the 2-way baselines.
	Phases = core.Phases
	// OpStats accumulates work counters across a call.
	OpStats = core.OpStats
	// PhaseTimings reports the symbolic/numeric wall-clock split;
	// only SlidingHash has a symbolic phase.
	PhaseTimings = core.PhaseTimings
)

// Algorithm constants, in the order of the paper's evaluation tables.
const (
	// Auto picks SlidingHash, SPA or Hash from the input's shape: its
	// row count, column count and nnz.
	Auto = core.Auto
	// TwoWayIncremental adds pairs left to right (O(k²nd) work).
	TwoWayIncremental = core.TwoWayIncremental
	// TwoWayTree adds pairs up a balanced tree (O(knd lg k) work).
	TwoWayTree = core.TwoWayTree
	// MapIncremental is the generic-map pairwise baseline.
	MapIncremental = core.MapIncremental
	// MapTree is the generic-map tree baseline.
	MapTree = core.MapTree
	// Heap is the k-way min-heap merge; needs sorted inputs.
	Heap = core.Heap
	// SPA is the sparse-accumulator algorithm.
	SPA = core.SPA
	// Hash is the hash-table algorithm, the paper's recommendation.
	Hash = core.Hash
	// SlidingHash caps hash tables to the last-level cache.
	SlidingHash = core.SlidingHash
)

// Execution-engine constants, the values OpStats.EngineUsed reports.
// The algorithm fixes the engine: each k-way algorithm has exactly
// one. The two-phase driver reads every input twice (symbolic sizing
// + numeric fill); the upper-bound engine reads each input exactly
// once, at the paper's O(knd) memory-traffic lower bound. See
// DESIGN.md §2.
const (
	// PhasesAuto is reported before any addition was dispatched.
	PhasesAuto = core.PhasesAuto
	// PhasesTwoPass is the classic symbolic+numeric two-pass driver
	// of SlidingHash and the 2-way baselines.
	PhasesTwoPass = core.PhasesTwoPass
	// PhasesUpperBound, the engine of Hash, SPA and Heap, allocates
	// from the per-column input-nnz upper bound, fills in one pass,
	// then compacts in parallel.
	PhasesUpperBound = core.PhasesUpperBound
)

// Monoid is the pluggable combine operation of an addition: SpKAdd's
// kernels are k-way merge-and-combine kernels, and any commutative
// monoid (GraphBLAS's eWiseAdd operand) can replace the default
// float64 "+" via Options.Monoid. Output structure is always the
// union of the input structures; the monoid only decides how
// colliding values fold. Custom monoids are plain literals:
//
//	atLeast := &spkadd.Monoid{Name: "Min", ...}  // or use the built-ins
type Monoid = ops.Monoid

// Built-in monoids. A nil Options.Monoid means Plus, served by the
// specialized inlined float64 kernels; the others run the same
// engines through the generic combine path. Only Plus supports
// AddScaled coefficients.
var (
	// Plus is numeric addition, the paper's operation (the default).
	Plus = ops.Plus
	// Min keeps the smallest colliding value (min-plus ensembling).
	Min = ops.Min
	// Max keeps the largest colliding value (max-pooling).
	Max = ops.Max
	// Any is the structural union: present anywhere → 1 in the output.
	Any = ops.Any
	// Count is occurrence frequency: how many inputs store the entry.
	Count = ops.Count
)

// Per-type built-in monoids, the generic forms of the variables
// above. Each returns the canonical shared instance for T — pointer
// identity is what routes a nil/Plus monoid onto the specialized
// inlined "+=" kernels, so always obtain built-ins through these
// rather than constructing lookalike literals.

// PlusFor returns T's addition monoid, nil for bool (booleans have no
// "+"; use AnyFor).
func PlusFor[T Number]() *MonoidOf[T] { return ops.PlusFor[T]() }

// MinFor returns T's minimum monoid, nil for bool.
func MinFor[T Number]() *MonoidOf[T] { return ops.MinFor[T]() }

// MaxFor returns T's maximum monoid, nil for bool.
func MaxFor[T Number]() *MonoidOf[T] { return ops.MaxFor[T]() }

// AnyFor returns T's structural-union monoid: present anywhere →
// true/1 in the output. The usual monoid for bool matrices
// (reachability overlays; see examples/reach).
func AnyFor[T Number]() *MonoidOf[T] { return ops.AnyFor[T]() }

// CountFor returns T's occurrence-frequency monoid, nil for bool.
func CountFor[T Number]() *MonoidOf[T] { return ops.CountFor[T]() }

// Fault-tolerance types: how failures inside the streaming stack are
// reported instead of killing the process. See DESIGN.md §11.
type (
	// PanicError is a panic recovered inside an addition — in an
	// executor worker, a pool shard's reducer, an accumulator's flush
	// or an inline kernel — converted to an error at the nearest
	// recovery boundary. Value holds the original panic value, Stack
	// the panicking goroutine's stack.
	PanicError = core.PanicError
	// ShardHealth reports one pool shard's condition (see Pool.Health).
	ShardHealth = core.ShardHealth
	// HealthState classifies a shard: HealthOK or HealthPoisoned.
	HealthState = core.HealthState
	// ShardError attributes a sticky shard failure to its column
	// range; Pool.Sum and Pool.Close join one per failed shard.
	ShardError = core.ShardError
)

// Shard-health states reported by Pool.Health.
const (
	// HealthOK: the shard is reducing normally.
	HealthOK = core.HealthOK
	// HealthPoisoned: a reduction failed; its error is sticky, a
	// panicked workspace is quarantined, and the last good sum is
	// served. Poisoning is terminal.
	HealthPoisoned = core.HealthPoisoned
)

// Errors returned by Add.
var (
	// ErrNoInputs reports an empty input collection.
	ErrNoInputs = core.ErrNoInputs
	// ErrDimMismatch reports inputs of differing dimensions.
	ErrDimMismatch = core.ErrDimMismatch
	// ErrUnsortedInput reports unsorted columns passed to an
	// algorithm that requires sorted inputs (2-way merge, heap).
	ErrUnsortedInput = core.ErrUnsortedInput
	// ErrAccumulatorInUse reports an Accumulator called from a second
	// goroutine while a call is in flight (use a Pool for concurrent
	// producers).
	ErrAccumulatorInUse = core.ErrAccumulatorInUse
	// ErrPoolClosed reports a Push on a Pool after Close, or a second
	// Close after the first completed.
	ErrPoolClosed = core.ErrPoolClosed
	// ErrCanceled wraps a context cancellation observed by the
	// context-aware entry points (AddContext, PushContext, SumContext,
	// CloseContext); errors.Is also matches context.Canceled.
	ErrCanceled = core.ErrCanceled
	// ErrDeadline is the deadline form of ErrCanceled; errors.Is also
	// matches context.DeadlineExceeded.
	ErrDeadline = core.ErrDeadline
	// ErrCoeffsRequirePlus reports AddScaled coefficients combined
	// with a non-Plus monoid (scaling distributes over "+" only).
	ErrCoeffsRequirePlus = core.ErrCoeffsRequirePlus
	// ErrMonoidUnsupported reports a monoid on a configuration that
	// cannot run it: a non-Plus monoid on a 2-way baseline, or a
	// DropIdentity monoid on SlidingHash, whose two-pass driver sizes
	// the output before values exist. An Accumulator or Pool under
	// such options refuses every Push with it.
	ErrMonoidUnsupported = core.ErrMonoidUnsupported
)

// Add computes the sum of the given matrices. All inputs must share
// dimensions. The zero Options value selects the Auto algorithm with
// GOMAXPROCS workers.
// Generic over the element type: Add(float32 matrices) runs float32
// kernels end to end, halving value-array traffic; calls with
// []*Matrix infer float64 exactly as before.
func Add[T Number](as []*MatrixOf[T], opt OptionsOf[T]) (*MatrixOf[T], error) {
	return core.Add(as, opt)
}

// AddTimed is Add, additionally reporting the wall-clock split between
// the symbolic (output sizing) and numeric phases. Only SlidingHash
// has a symbolic phase; every other algorithm reports its full time
// as Numeric.
func AddTimed[T Number](as []*MatrixOf[T], opt OptionsOf[T]) (*MatrixOf[T], PhaseTimings, error) {
	return core.AddTimed(as, opt)
}

// AddContext is Add with cooperative cancellation: the engines check
// ctx at phase boundaries (before the symbolic pass, between passes,
// after the numeric pass) and abandon the call with an error wrapping
// ErrCanceled or ErrDeadline, leaving no partial result.
func AddContext[T Number](ctx context.Context, as []*MatrixOf[T], opt OptionsOf[T]) (*MatrixOf[T], error) {
	return core.AddContext(ctx, as, opt)
}

// FromTriples builds a sorted, duplicate-merged CSC matrix from
// coordinate entries (duplicates sum, as in finite-element assembly).
func FromTriples(rows, cols int, ts []Triple) *Matrix {
	return matrix.FromTriples(rows, cols, ts)
}

// FromTriplesOf is FromTriples for any supported element type.
func FromTriplesOf[T Number](rows, cols int, ts []TripleOf[T]) *MatrixOf[T] {
	return matrix.FromTriplesOf(rows, cols, ts)
}

// NewCOO returns an empty coordinate-format matrix for incremental
// assembly; convert with its ToCSC method.
func NewCOO(rows, cols int) *COO { return matrix.NewCOO(rows, cols) }

// RandomER generates an Erdős–Rényi (uniform) random matrix with
// about nnzPerCol nonzeros in each column.
func RandomER(rows, cols, nnzPerCol int, seed uint64) *Matrix {
	return generate.ER(generate.Opts{Rows: rows, Cols: cols, NNZPerCol: nnzPerCol, Seed: seed})
}

// RandomRMAT generates a power-law matrix with Graph500 R-MAT
// parameters (a=0.57, b=c=0.19, d=0.05).
func RandomRMAT(rows, cols, nnzPerCol int, seed uint64) *Matrix {
	return generate.RMAT(generate.Opts{Rows: rows, Cols: cols, NNZPerCol: nnzPerCol, Seed: seed}, generate.Graph500)
}

// ReadMatrixMarket parses a MatrixMarket coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return matrix.ReadMatrixMarket(r) }

// WriteMatrixMarket writes m in MatrixMarket coordinate format.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return matrix.WriteMatrixMarket(w, m) }

// MulOptions configure Multiply: Threads and SortOutput (ascending
// rows within each product column).
type MulOptions = core.MulOptions

// Multiply computes the sparse product A*B, the local multiply of the
// SUMMA simulation. It runs on the addition's single-pass hash engine:
// by Gustavson's formulation each product column
// C(:,j) = Σ_k B(k,j)·A(:,k) is a scaled k-way addition of columns of
// A. Scratch comes from a pool, as for Add; only the returned product
// is allocated. Mismatched inner dimensions wrap ErrDimMismatch.
func Multiply(a, b *Matrix, opt MulOptions) (*Matrix, error) {
	return core.Mul(a, b, opt)
}

// SummaConfig configures a simulated distributed sparse SUMMA run.
type SummaConfig = summa.Config

// SummaReport aggregates the per-phase timings of a SUMMA run.
type SummaReport = summa.Report

// RunSumma multiplies a by b on a simulated process grid, reducing
// each process's intermediate products with the configured SpKAdd
// algorithm. It reports the local-multiply / SpKAdd time split that
// the paper's Fig 6 compares across reduction algorithms. The
// product's columns are sorted by row, with sorted or unsorted
// intermediates alike. Mismatched operands wrap ErrDimMismatch, and
// operands with unsorted columns ErrUnsortedInput.
func RunSumma(a, b *Matrix, cfg SummaConfig) (*Matrix, SummaReport, error) {
	return summa.Run(a, b, cfg)
}

// Accumulator performs streaming/batched SpKAdd under a memory budget
// (the batching strategy of the paper's §V for inputs that arrive over
// time or exceed memory).
type Accumulator = core.Accumulator

// NewAccumulator returns a streaming accumulator for rows x cols
// matrices that reduces its buffer k-way whenever the buffered input
// exceeds budgetBytes (<=0 means 256MB).
func NewAccumulator(rows, cols int, budgetBytes int64, opt Options) *Accumulator {
	return core.NewAccumulator(rows, cols, budgetBytes, opt)
}

// NewAccumulatorOf is NewAccumulator for any supported element type.
func NewAccumulatorOf[T Number](rows, cols int, budgetBytes int64, opt OptionsOf[T]) *AccumulatorOf[T] {
	return core.NewAccumulatorOf[T](rows, cols, budgetBytes, opt)
}

// AddScaled computes the weighted sum B = Σ coeffs[i]·A_i (e.g.
// gradient averaging with coeffs = 1/k). Supported by the k-way
// algorithms (Auto, Heap, SPA, Hash, SlidingHash).
func AddScaled[T Number](as []*MatrixOf[T], coeffs []T, opt OptionsOf[T]) (*MatrixOf[T], error) {
	return core.AddScaled(as, coeffs, opt)
}
